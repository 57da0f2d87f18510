package conformance

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"hotline/internal/shard"
)

// The pipelined-stream contract of the socket fabric. A push returns once
// its frame is on the owner's ordered stream; its ack is read later, by the
// next operation on that peer that reads. RunPipeline pins what callers may
// rely on — ordering, where a lost push surfaces and how it heals, the bound
// on unread acks, the chunked fetch, a revived peer's clean slate — on a
// bare SocketTransport and through the ResilientTransport.

// owedBound is shard's maxOwedAcks: the most acks a peer leaves unread.
const owedBound = 64

// pipeModes are the two transports every pipeline cell runs over.
var pipeModes = []struct {
	name      string
	resilient bool
}{{"bare", false}, {"resilient", true}}

// pipeFixture is a two-node local fabric under a service whose mirror
// (store) is the table's authoritative copy. The cells drive the transport
// directly; the service is there for what the resilient layer needs of it —
// the resync of a revived peer from the mirror — and for staging buffers.
// Peer 0's connection carries the fault spec, inert until arm.
type pipeFixture struct {
	fab   *shard.LocalFabric
	bare  *shard.SocketTransport
	tr    shard.Transport // bare, or the resilient layer over it
	svc   *shard.Service
	store [][]float32
	src   shard.RowAt
	arm   func()
}

func newPipeFixture(t *testing.T, network string, resilient bool, rows, dim int, timeout time.Duration, spec faultSpec) *pipeFixture {
	t.Helper()
	fx := &pipeFixture{}
	fx.fab, fx.arm = faultFabric(t, network, timeout, spec)
	fx.bare = fx.fab.Transport
	fx.tr = fx.bare
	if resilient {
		rt, err := shard.NewResilientTransport(fx.bare, shard.RetryConfig{
			Backoff: func(int) time.Duration { return 0 },
			Resolve: fx.fab.Resolve,
		})
		if err != nil {
			t.Fatal(err)
		}
		fx.tr = rt
	}
	fx.store = make([][]float32, rows)
	for r := range fx.store {
		fx.store[r] = make([]float32, dim)
	}
	fx.set(0)
	fx.src = func(row int32) []float32 { return fx.store[row] }
	fx.svc = shard.New(shard.Config{Nodes: 2, CacheBytes: 0, RowBytes: int64(dim) * 4}, nil)
	fx.svc.SetTransport(fx.tr)
	t.Cleanup(func() { fx.svc.Close() })
	fx.svc.RegisterTable(0, dim, rows, fx.src)
	if err := fx.svc.FabricErr(); err != nil {
		t.Fatalf("initial shard sync: %v", err)
	}
	return fx
}

// set rewrites the whole mirror to version v: distinct per row, element and
// version, so a stale or misplaced value cannot pass for the right one.
func (fx *pipeFixture) set(v int) {
	for r, row := range fx.store {
		for k := range row {
			row[k] = float32(v*1000000 + r*100 + k)
		}
	}
}

// owned lists the rows of the table that node owns (round-robin, 2 nodes).
func (fx *pipeFixture) owned(node int) []int32 {
	var rows []int32
	for r := node; r < len(fx.store); r += 2 {
		rows = append(rows, int32(r))
	}
	return rows
}

// fetch reads node 0's rows over the transport into a freshly planned window.
func (fx *pipeFixture) fetch(t *testing.T, rows []int32) (*shard.Staging, error) {
	t.Helper()
	// Batch position 1 is dealt to node 1, so node 0's rows are remote to it.
	st := fx.svc.PlanGather(0, [][]int32{nil, rows})
	if st == nil {
		t.Fatal("pipeline probe plan is empty")
	}
	return st, fx.tr.Fetch(0, 0, rows, st, nil)
}

// mustMatchMirror fetches rows and demands the mirror's bits for each.
func (fx *pipeFixture) mustMatchMirror(t *testing.T, rows []int32) {
	t.Helper()
	st, err := fx.fetch(t, rows)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	for _, r := range rows {
		v, ok := st.Lookup(r)
		if !ok {
			t.Fatalf("row %d not staged", r)
		}
		for k, want := range fx.store[r] {
			if math.Float32bits(v[k]) != math.Float32bits(want) {
				t.Fatalf("row %d[%d] = %v, mirror holds %v", r, k, v[k], want)
			}
		}
	}
}

// RunPipeline executes the pipelined-stream contract on one socket family.
func RunPipeline(t *testing.T, network string) {
	for _, mode := range pipeModes {
		t.Run(mode.name, func(t *testing.T) {
			t.Run("PushThenFetchIsOrdered", func(t *testing.T) {
				// N pushes of changing values, then a fetch with no barrier
				// in between: the fetch is answered after every push, so it
				// observes the last bits of every row.
				fx := newPipeFixture(t, network, mode.resilient, 32, 8, suiteTimeout(t), faultSpec{})
				rows := fx.owned(0)
				fx.mustMatchMirror(t, rows) // reaps the initial sync's acks
				const pushes = 10
				for v := 1; v <= pushes; v++ {
					fx.set(v)
					if err := fx.tr.Push(0, 0, rows, fx.src); err != nil {
						t.Fatalf("push %d: %v", v, err)
					}
				}
				if got := fx.bare.OwedAcks(0); got != pushes {
					t.Fatalf("%d acks owed after %d unread pushes", got, pushes)
				}
				fx.mustMatchMirror(t, rows)
				if got := fx.bare.OwedAcks(0); got != 0 {
					t.Fatalf("%d acks still owed after a fetch", got)
				}
			})

			t.Run("LostPush", func(t *testing.T) {
				// Exactly one push frame vanishes in flight. The push cannot
				// know; the next fetch from that peer, waiting for an ack
				// that never comes, is where the loss surfaces: typed on the
				// bare transport, healed by re-dial and resync — which
				// restores the lost rows from the mirror — through the
				// resilient layer.
				lose := &atomic.Bool{}
				fx := newPipeFixture(t, network, mode.resilient, 32, 8, 300*time.Millisecond, faultSpec{dropNext: lose})
				rows := fx.owned(0)
				fx.set(1)
				lose.Store(true)
				fx.arm()
				if err := fx.tr.Push(0, 0, rows, fx.src); err != nil {
					t.Fatalf("push whose frame is lost in flight: %v", err)
				}
				if lose.Load() {
					t.Fatal("the fault never fired")
				}
				if !mode.resilient {
					if _, err := fx.fetch(t, rows); !errors.Is(err, shard.ErrPeerDead) {
						t.Fatalf("fetch behind a lost push: got %v want ErrPeerDead", err)
					}
					return
				}
				fx.mustMatchMirror(t, rows)
				if h := fx.svc.PeerHealth()[0]; h.State != shard.PeerAlive || h.Redials != 1 {
					t.Fatalf("peer 0 after healing a lost push: %+v", h)
				}
				if rs := fx.svc.RecoveryStats(); rs.ResyncRows == 0 {
					t.Fatalf("healed without a resync: %+v", rs)
				}
				if err := fx.svc.FabricErr(); err != nil {
					t.Fatalf("a healed loss was recorded as a fabric error: %v", err)
				}
			})

			t.Run("OwedAcksAreBounded", func(t *testing.T) {
				// Far more back-to-back pushes than the bound, and nothing
				// that reads: the transport reaps by itself at the bound, so
				// this neither deadlocks (the fabric timeout would fail it)
				// nor lets the unread acks pile up.
				fx := newPipeFixture(t, network, mode.resilient, 32, 8, suiteTimeout(t), faultSpec{})
				rows := fx.owned(0)
				fx.mustMatchMirror(t, rows) // the initial sync is applied: the node's count is settled
				before := fx.fab.Servers[0].Stats().PushFrames
				const pushes = 3*owedBound + 7
				for v := 1; v <= pushes; v++ {
					fx.set(v)
					if err := fx.tr.Push(0, 0, rows, fx.src); err != nil {
						t.Fatalf("push %d: %v", v, err)
					}
					if got := fx.bare.OwedAcks(0); got >= owedBound {
						t.Fatalf("%d acks owed after push %d, bound %d", got, v, owedBound)
					}
				}
				fx.mustMatchMirror(t, rows)
				if got := fx.fab.Servers[0].Stats().PushFrames - before; got != pushes {
					t.Fatalf("node applied %d push frames, want %d", got, pushes)
				}
			})

			t.Run("ChunkedFetch", func(t *testing.T) {
				// A dim wide enough that one fetch needs four reply frames:
				// the requests go out ahead of the replies, every row comes
				// back, and the node served exactly one frame per chunk.
				const dim, n = 2048, 400
				chunk := (shard.MaxFrame - 64) / (5 + 4*dim)
				chunks := (n + chunk - 1) / chunk
				if chunks < 3 {
					t.Fatalf("test geometry no longer chunks: %d rows per frame", chunk)
				}
				fx := newPipeFixture(t, network, mode.resilient, 2*n, dim, suiteTimeout(t), faultSpec{})
				before := fx.fab.Servers[0].Stats().FetchFrames
				fx.mustMatchMirror(t, fx.owned(0))
				if got := fx.fab.Servers[0].Stats().FetchFrames - before; got != int64(chunks) {
					t.Fatalf("node served %d fetch frames, want %d", got, chunks)
				}
			})

			if !mode.resilient {
				return // reviving a peer is the resilient layer's job
			}
			t.Run("RevivedPeerOwesNothing", func(t *testing.T) {
				// The node dies with pushes unacknowledged and restarts,
				// empty, elsewhere. The re-dialed stream must start clean —
				// waiting on the dead conn's acks would hang the revival —
				// and the resync must restore what those pushes carried.
				fx := newPipeFixture(t, network, true, 32, 8, suiteTimeout(t), faultSpec{})
				rows := fx.owned(0)
				fx.set(1)
				for i := 0; i < 5; i++ {
					if err := fx.tr.Push(0, 0, rows, fx.src); err != nil {
						t.Fatal(err)
					}
				}
				if fx.bare.OwedAcks(0) == 0 {
					t.Fatal("no pushes outstanding at the kill")
				}
				fx.fab.Kill(0)
				if err := fx.fab.Restart(0); err != nil {
					t.Fatal(err)
				}
				addr := fx.fab.Servers[0].Addr()

				fx.mustMatchMirror(t, rows)
				if got := fx.bare.OwedAcks(0); got != 0 {
					t.Fatalf("%d acks owed on the revived peer after a fetch", got)
				}
				if h := fx.svc.PeerHealth()[0]; h.State != shard.PeerAlive || h.Redials != 1 || h.Addr != addr {
					t.Fatalf("peer 0 after revival: %+v", h)
				}
				if err := fx.svc.FabricErr(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
