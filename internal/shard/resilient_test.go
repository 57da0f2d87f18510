package shard

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// noSleep is the injected clock for recovery tests: backoff costs nothing,
// the budget never expires on wall time, and schedules are deterministic.
func noSleep(cfg *RetryConfig) {
	cfg.Sleep = func(time.Duration) {}
	cfg.Backoff = func(int) time.Duration { return 0 }
}

func TestTransientFabricErrClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
	}{
		{"nil", nil, false},
		{"peer dead", fmt.Errorf("node 1: %w", ErrPeerDead), true},
		{"io eof", fmt.Errorf("%w: node 1 read: %w", ErrPeerDead, io.ErrUnexpectedEOF), true},
		{"truncated", fmt.Errorf("%w: node 1 read: %w", ErrPeerDead, ErrTruncatedFrame), true},
		{"bad frame", fmt.Errorf("%w: node 1 decode: %w", ErrPeerDead, ErrBadFrame), false},
		{"oversized frame", fmt.Errorf("%w: node 1 read: %w", ErrPeerDead, ErrFrameTooLarge), false},
		{"unknown row", wireErr(wireErrUnknownRow, "row 9"), false},
		{"config", fmt.Errorf("%w: bad network", ErrFabricConfig), false},
		{"closed", ErrClosed, false},
	}
	for _, c := range cases {
		if got := TransientFabricErr(c.err); got != c.transient {
			t.Errorf("%s: TransientFabricErr = %v, want %v", c.name, got, c.transient)
		}
	}
}

// resilientFixture is a 2-node local fabric behind a ResilientTransport
// with an injected (sleepless) clock, its rows pre-pushed and a resync
// callback restoring them on revival.
type resilientFixture struct {
	fab  *LocalFabric
	rt   *ResilientTransport
	rows []int32
	dim  int
}

func newResilientFixture(t *testing.T, cfg RetryConfig) *resilientFixture {
	t.Helper()
	const dim = 8
	f, err := StartLocalFabric(2, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	noSleep(&cfg)
	rt, err := NewResilientTransport(f.Transport, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int32{1, 3, 5, 7}
	fx := &resilientFixture{fab: f, rt: rt, rows: rows, dim: dim}
	rt.setResync(func(owner int, direct Transport) error {
		return direct.Push(0, owner, rows, rowPattern(dim))
	})
	if err := rt.Push(0, 1, rows, rowPattern(dim)); err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestResilientRedialRevives kills a node mid-run and restarts it on a new
// port: the transport classifies the failure transient, re-dials via the
// Resolve hook, resyncs the empty store from the row source, and the
// original fetch replays successfully — the caller never sees the outage.
func TestResilientRedialRevives(t *testing.T) {
	var restarted *NodeServer
	fx := newResilientFixture(t, RetryConfig{
		Resolve: func(owner int) (string, error) {
			if owner == 1 && restarted != nil {
				return restarted.Addr(), nil
			}
			return "", nil
		},
	})
	fx.fab.Servers[1].Close()
	srv, err := ServeNode(1, "unix", t.TempDir()+"/restart.sock", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	restarted = srv

	st := stagingFor(fx.rows, fx.dim)
	if err := fx.rt.Fetch(0, 1, fx.rows, st, nil); err != nil {
		t.Fatalf("fetch across restart: %v", err)
	}
	checkFetched(t, st, fx.rows, fx.dim)
	h := fx.rt.PeerHealth()[1]
	if h.State != PeerAlive || h.Redials < 1 || h.Addr != srv.Addr() {
		t.Fatalf("peer 1 health after revival = %+v", h)
	}
	if h.LastErr != "" {
		t.Fatalf("healthy peer still reports error %q", h.LastErr)
	}
}

// TestResilientSpareAdoptsIdentity kills a node with no restart in sight:
// after SpareAfter failed re-dials of the dead address, the configured
// spare process adopts the node's identity — address swap, re-dial, resync
// — and traffic resumes with ownership (and therefore training bits)
// unchanged.
func TestResilientSpareAdoptsIdentity(t *testing.T) {
	spare, err := ServeNode(1, "unix", t.TempDir()+"/spare.sock", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	fx := newResilientFixture(t, RetryConfig{
		Spares:     []string{spare.Addr()},
		SpareAfter: 2,
	})
	fx.fab.Servers[1].Close()

	st := stagingFor(fx.rows, fx.dim)
	if err := fx.rt.Fetch(0, 1, fx.rows, st, nil); err != nil {
		t.Fatalf("fetch across spare adoption: %v", err)
	}
	checkFetched(t, st, fx.rows, fx.dim)
	h := fx.rt.PeerHealth()[1]
	if !h.Adopted || h.State != PeerAlive || h.Addr != spare.Addr() {
		t.Fatalf("peer 1 health after spare adoption = %+v", h)
	}
	if s := spare.Stats(); s.RowsHeld != len(fx.rows) {
		t.Fatalf("spare holds %d rows, want %d", s.RowsHeld, len(fx.rows))
	}
}

// TestResilientGivesUpPastBudget exhausts the redial budget against a peer
// that never comes back: the peer is declared unrecoverable (PeerDead), the
// error stays classifiable and carries the address, and later operations
// fail fast.
func TestResilientGivesUpPastBudget(t *testing.T) {
	fx := newResilientFixture(t, RetryConfig{MaxRedials: 2})
	deadAddr := fx.rt.inner.peerAddr(1)
	fx.fab.Servers[1].Close()

	err := fx.rt.Fetch(0, 1, fx.rows, stagingFor(fx.rows, fx.dim), nil)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("fetch past budget = %v, want ErrPeerDead", err)
	}
	h := fx.rt.PeerHealth()[1]
	if h.State != PeerDead {
		t.Fatalf("peer 1 health after give-up = %+v", h)
	}
	err2 := fx.rt.Push(0, 1, fx.rows, rowPattern(fx.dim))
	if !errors.Is(err2, ErrPeerDead) {
		t.Fatalf("push to unrecoverable peer = %v, want fast ErrPeerDead", err2)
	}
	for _, e := range []error{err, err2} {
		if !containsAddr(e, deadAddr) {
			t.Fatalf("error %q lost the dead peer's address %q", e, deadAddr)
		}
	}
	// The healthy peer is untouched.
	if err := fx.rt.Push(0, 0, fx.rows, rowPattern(fx.dim)); err != nil {
		t.Fatalf("healthy peer after neighbour give-up: %v", err)
	}
}

func containsAddr(err error, addr string) bool {
	return err != nil && addr != "" && strings.Contains(err.Error(), addr)
}

// TestResilientCorruptionDoesNotRetry: protocol corruption (a reply that
// can never form a valid frame) is not transient — the resilient layer
// surfaces it unretried instead of hammering a peer that is speaking
// garbage.
func TestResilientCorruptionDoesNotRetry(t *testing.T) {
	fx := newResilientFixture(t, RetryConfig{})
	// Talk to peer 1 with a request the node answers with the wrong opcode:
	// exercise the classifier directly on the typed error exchange produces.
	err := fmt.Errorf("%w: node 1 (unix x.sock) decode: %w", ErrPeerDead, ErrBadFrame)
	if TransientFabricErr(err) {
		t.Fatal("corruption classified transient")
	}
	// And end-to-end: a healthy fabric op still works after the classifier
	// refuses a corruption retry elsewhere.
	if err := fx.rt.Push(0, 0, fx.rows, rowPattern(fx.dim)); err != nil {
		t.Fatal(err)
	}
}

// serviceRecoveryFixture builds a pure-remote 2-node Service over a
// resilient local fabric with the given recovery policy armed and one
// registered 32-row table.
func serviceRecoveryFixture(t *testing.T, policy RecoveryPolicy, retry RetryConfig) (*Service, *LocalFabric) {
	t.Helper()
	const dim, rows = 8, 32
	f, err := StartLocalFabric(2, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	noSleep(&retry)
	rt, err := NewResilientTransport(f.Transport, retry)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Nodes: 2, CacheBytes: 0, RowBytes: dim * 4}, nil)
	svc.SetRecovery(RecoveryConfig{Policy: policy})
	svc.SetTransport(rt)
	svc.RegisterTable(0, dim, rows, rowPattern(dim))
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	return svc, f
}

// TestServiceSurvivorAdoption kills a peer past its retry budget under the
// adopt policy: the survivor adopts the dead node's rows (migrated from the
// authoritative mirror), the failed fetch re-routes and completes, and the
// run records no fabric error — recovery, not failure.
func TestServiceSurvivorAdoption(t *testing.T) {
	svc, f := serviceRecoveryFixture(t, RecoverAdopt, RetryConfig{MaxRedials: 1, MaxAttempts: 1})
	defer svc.Close()
	f.Servers[1].Close()

	// Rows owned by node 1 under round-robin (odd rows).
	rows := []int32{1, 3, 5, 7}
	st := stagingFor(rows, 8)
	if err := svc.transportFetch(0, 1, rows, st); err != nil {
		t.Fatalf("fetch across survivor adoption: %v", err)
	}
	checkFetched(t, st, rows, 8)
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("recovered run recorded a fabric error: %v", err)
	}
	if dead := svc.DeadNodes(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", dead)
	}
	rs := svc.RecoveryStats()
	if rs.Adoptions != 1 || rs.MigratedRows == 0 || rs.Refetches == 0 {
		t.Fatalf("RecoveryStats = %+v", rs)
	}
	// Ownership now routes every former node-1 row to the survivor.
	for _, r := range rows {
		if o := svc.Owner(0, r); o != 0 {
			t.Fatalf("row %d still owned by %d after adoption", r, o)
		}
	}
	// Scatter pushes to adopted rows follow the new ownership.
	svc.PushUpdates(0, rows, rowPattern(8))
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("push after adoption: %v", err)
	}
}

// TestServiceAdoptionNotArmedFailsFast: without the adopt policy a dead
// peer past its budget is a run-voiding fabric error, exactly as before the
// recovery subsystem existed.
func TestServiceAdoptionNotArmedFailsFast(t *testing.T) {
	svc, f := serviceRecoveryFixture(t, RecoverRedial, RetryConfig{MaxRedials: 1, MaxAttempts: 1})
	defer svc.Close()
	f.Servers[1].Close()
	rows := []int32{1, 3}
	if err := svc.transportFetch(0, 1, rows, stagingFor(rows, 8)); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("fetch without adoption = %v, want ErrPeerDead", err)
	}
	if svc.FabricErr() == nil {
		t.Fatal("unrecovered failure recorded no fabric error")
	}
	if len(svc.DeadNodes()) != 0 {
		t.Fatal("redial policy must not adopt shards")
	}
}

// TestFabricErrAggregates: the fabric error is no longer first-error-wins —
// distinct failures aggregate (classifiable through the join) and the total
// count survives past the aggregation cap.
func TestFabricErrAggregates(t *testing.T) {
	svc := New(Config{Nodes: 2, CacheBytes: 0, RowBytes: 16}, nil)
	defer svc.Close()
	svc.noteFabricErr(fmt.Errorf("first: %w", ErrPeerDead))
	svc.noteFabricErr(fmt.Errorf("second: %w", ErrUnknownRow))
	for i := 0; i < 2*maxAggregatedFabricErrs; i++ {
		svc.noteFabricErr(fmt.Errorf("cascade %d: %w", i, ErrPeerDead))
	}
	err := svc.FabricErr()
	if !errors.Is(err, ErrPeerDead) || !errors.Is(err, ErrUnknownRow) {
		t.Fatalf("aggregate = %v, want both classes classifiable", err)
	}
	if n := svc.FabricErrCount(); n != 2+2*maxAggregatedFabricErrs {
		t.Fatalf("FabricErrCount = %d", n)
	}
	svc.ResetFabricErr()
	if svc.FabricErr() != nil || svc.FabricErrCount() != 0 {
		t.Fatal("ResetFabricErr left state behind")
	}
}

// TestServeDegradesToMirror: with a resilient fabric, a serve-side gather
// against a dead peer answers from the coordinator's mirror instead of
// erroring, counts StaleServeRows in the serve snapshot only, and
// un-degrades by itself once the peer is back.
func TestServeDegradesToMirror(t *testing.T) {
	var restarted *NodeServer
	svc, f := serviceRecoveryFixture(t, RecoverRedial, RetryConfig{
		MaxRedials: 1,
		Resolve: func(owner int) (string, error) {
			if owner == 1 && restarted != nil {
				return restarted.Addr(), nil
			}
			return "", nil
		},
	})
	defer svc.Close()
	// The serve window wants odd (node-1-owned) rows for node 0.
	rows := []int32{1, 3, 5}

	f.Servers[1].Close()
	st := svc.PlanServeGather(0, [][]int32{rows})
	svc.ServeGatherSync(st)
	checkFetched(t, st, rows, 8)
	st.Release()
	if got := svc.ServeSnapshot().StaleServeRows; got != int64(len(rows)) {
		t.Fatalf("StaleServeRows = %d, want %d", got, len(rows))
	}
	if svc.Snapshot().StaleServeRows != 0 {
		t.Fatal("training snapshot counted serve staleness")
	}
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("degraded serve recorded a fabric error: %v", err)
	}

	// Peer returns on a new port; the next serve gather probes, re-dials,
	// resyncs and stops counting stale rows.
	srv, err := ServeNode(1, "unix", t.TempDir()+"/back.sock", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	restarted = srv
	before := svc.ServeSnapshot().StaleServeRows
	st = svc.PlanServeGather(0, [][]int32{rows})
	svc.ServeGatherSync(st)
	checkFetched(t, st, rows, 8)
	st.Release()
	if got := svc.ServeSnapshot().StaleServeRows; got != before {
		t.Fatalf("StaleServeRows grew to %d after the peer returned", got)
	}
	if h := svc.PeerHealth()[1]; h.State != PeerAlive {
		t.Fatalf("peer 1 health after return = %+v", h)
	}
}
