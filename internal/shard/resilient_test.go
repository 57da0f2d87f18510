package shard

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// noBackoff makes recovery tests re-dial without pausing between attempts.
func noBackoff(cfg *RetryConfig) {
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
// with no re-dial backoff and the fabric's Resolve, its rows pre-pushed and
// a resync callback restoring them on revival.
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
	noBackoff(&cfg)
	cfg.Resolve = f.Resolve
	rt, err := NewResilientTransport(f.Transport, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int32{1, 3, 5, 7}
	fx := &resilientFixture{fab: f, rt: rt, rows: rows, dim: dim}
	rt.resync = func(owner int, direct Transport) error {
		return direct.Push(0, owner, rows, rowPattern(dim))
	}
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
	fx := newResilientFixture(t, RetryConfig{})
	fx.fab.Kill(1)
	if err := fx.fab.Restart(1); err != nil {
		t.Fatal(err)
	}

	st := stagingFor(fx.rows, fx.dim)
	if err := fx.rt.Fetch(0, 1, fx.rows, st, nil); err != nil {
		t.Fatalf("fetch across restart: %v", err)
	}
	checkFetched(t, st, fx.rows, fx.dim)
	h := fx.rt.PeerHealth()[1]
	if h.State != PeerAlive || h.Redials < 1 || h.Addr != fx.fab.Servers[1].Addr() {
		t.Fatalf("peer 1 health after revival = %+v", h)
	}
	if h.LastErr != "" {
		t.Fatalf("healthy peer still reports error %q", h.LastErr)
	}
}

// TestResilientGivesUpPastBudget exhausts the redial budget against a peer
// that never comes back: the peer is declared unrecoverable (PeerDead), the
// error stays classifiable and carries the address, and later operations
// fail fast.
func TestResilientGivesUpPastBudget(t *testing.T) {
	fx := newResilientFixture(t, RetryConfig{MaxRedials: 2})
	deadAddr := fx.rt.inner.peerAddr(1)
	fx.fab.Kill(1)

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
// resilient local fabric (re-dials follow the fabric's Resolve) with the
// given recovery policy armed and one registered 32-row table.
func serviceRecoveryFixture(t *testing.T, policy RecoveryPolicy, retry RetryConfig) (*Service, *LocalFabric) {
	t.Helper()
	const dim, rows = 8, 32
	f, err := StartLocalFabric(2, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	noBackoff(&retry)
	retry.Resolve = f.Resolve
	rt, err := NewResilientTransport(f.Transport, retry)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Nodes: 2, CacheBytes: 0, RowBytes: dim * 4}, nil)
	svc.SetRecovery(policy)
	svc.SetTransport(rt)
	svc.RegisterTable(0, rows, rowPattern(dim))
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
	f.Kill(1)

	// Rows owned by node 1 under round-robin (odd rows).
	rows := []int32{1, 3, 5, 7}
	st := stagingFor(rows, 8)
	if _, err := svc.transportFetch(0, 1, rows, st); err != nil {
		t.Fatalf("fetch across survivor adoption: %v", err)
	}
	checkFetched(t, st, rows, 8)
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("recovered run recorded a fabric error: %v", err)
	}
	if dead := svc.DeadNodes(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", dead)
	}
	rs := svc.Snapshot()
	if rs.Adoptions != 1 || rs.MigratedRows == 0 || rs.Refetches == 0 {
		t.Fatalf("recovery counts = %+v", rs)
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

// TestServiceAdoptionCascadesToTheLastNode kills both nodes of a 2-node
// adopt service in turn: the survivor adopts the first, and failing the
// last node standing over is a recorded ErrPeerDead — never a panic or a
// hang — with only the first node adopted away.
func TestServiceAdoptionCascadesToTheLastNode(t *testing.T) {
	svc, f := serviceRecoveryFixture(t, RecoverAdopt, RetryConfig{MaxRedials: 1, MaxAttempts: 1})
	defer svc.Close()
	f.Kill(1)
	rows := []int32{1, 3}
	if _, err := svc.transportFetch(0, 1, rows, stagingFor(rows, 8)); err != nil {
		t.Fatalf("fetch across the first adoption: %v", err)
	}

	f.Kill(0)
	rows = []int32{0, 1, 2}
	_, err := svc.transportFetch(0, 0, rows, stagingFor(rows, 8))
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("fetch with no node left = %v, want ErrPeerDead", err)
	}
	if ferr := svc.FabricErr(); !errors.Is(ferr, ErrPeerDead) {
		t.Fatalf("FabricErr = %v, want ErrPeerDead recorded", ferr)
	}
	if dead := svc.DeadNodes(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", dead)
	}
}

// TestAdoptionRewritesTheOwnerArrays adopts node 3, then node 2, of a 4-node
// in-proc service (the in-proc push is a no-op, so failoverDead runs bare).
// Every row's owner is recomputed from the placement at each adoption: its
// placed owner while that node lives, else survivors[row % 2] — for two
// tables registered before both adoptions (one of them walked before them)
// and one registered after them, whose registration places its rows around
// the dead nodes. The walks route by the same arrays, so a one-lookup gather
// from the owner's batch position is local.
func TestAdoptionRewritesTheOwnerArrays(t *testing.T) {
	const nodes, dim, rows = 4, 4, 64
	svc := New(Config{Nodes: nodes, CacheBytes: 0, RowBytes: dim * 4}, nil)
	defer svc.Close()
	svc.SetRecovery(RecoverAdopt)
	svc.RegisterTable(0, rows, rowPattern(dim))
	svc.RegisterTable(1, rows, rowPattern(dim))
	svc.RecordGather(1, [][]int32{{rows - 1}})
	for _, dead := range []int{3, 2} {
		if err := svc.failoverDead(dead); err != nil {
			t.Fatalf("failover of node %d: %v", dead, err)
		}
	}
	svc.RegisterTable(2, rows, rowPattern(dim))
	if dead := svc.DeadNodes(); len(dead) != 2 || dead[0] != 2 || dead[1] != 3 {
		t.Fatalf("DeadNodes = %v, want [2 3]", dead)
	}
	placed, survivors := NewRoundRobin(nodes), []int{0, 1}
	for table := 0; table < 3; table++ {
		for r := int32(0); r < rows; r++ {
			want := placed.Owner(table, r)
			if want >= 2 {
				want = survivors[r%2]
			}
			indices := make([][]int32, want+1)
			indices[want] = []int32{r}
			before := svc.Snapshot().Local
			svc.RecordGather(table, indices)
			if got := svc.Snapshot().Local - before; got != 1 {
				t.Fatalf("table %d row %d: gather from node %d booked %d local lookups, want 1", table, r, want, got)
			}
			if got := svc.Owner(table, r); got != want {
				t.Fatalf("table %d row %d: owner %d, want %d", table, r, got, want)
			}
		}
	}
	if a := svc.Snapshot().Adoptions; a != 2 {
		t.Fatalf("Adoptions = %d, want 2", a)
	}
}

// TestServiceAdoptionNotArmedFailsFast: without the adopt policy a dead
// peer past its budget is a run-voiding fabric error, exactly as before the
// recovery subsystem existed.
func TestServiceAdoptionNotArmedFailsFast(t *testing.T) {
	svc, f := serviceRecoveryFixture(t, RecoverRedial, RetryConfig{MaxRedials: 1, MaxAttempts: 1})
	defer svc.Close()
	f.Kill(1)
	rows := []int32{1, 3}
	if _, err := svc.transportFetch(0, 1, rows, stagingFor(rows, 8)); !errors.Is(err, ErrPeerDead) {
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
}

// TestServeDegradesToMirror: with a resilient fabric, a serve-side gather
// against a dead peer answers from the coordinator's mirror instead of
// erroring, counts StaleServeRows in the serve snapshot only, and
// un-degrades by itself once the peer is back.
func TestServeDegradesToMirror(t *testing.T) {
	svc, f := serviceRecoveryFixture(t, RecoverRedial, RetryConfig{MaxRedials: 1})
	defer svc.Close()
	// The serve window wants odd (node-1-owned) rows for node 0.
	rows := []int32{1, 3, 5}

	f.Kill(1)
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
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
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

// TestDeadPeerStaysDead: a peer the training path gave up on is dead for
// good. Once it is back on a new port, serve gathers still answer its rows
// from the mirror and fail fast: they neither re-dial it nor resync it.
func TestDeadPeerStaysDead(t *testing.T) {
	svc, f := serviceRecoveryFixture(t, RecoverRedial, RetryConfig{MaxRedials: 1, MaxAttempts: 2})
	defer svc.Close()
	f.Kill(1)
	rows := []int32{1, 3, 5}
	if _, err := svc.transportFetch(0, 1, rows, stagingFor(rows, 8)); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("training fetch from a killed peer = %v, want ErrPeerDead", err)
	}
	if h := svc.PeerHealth()[1]; h.State != PeerDead {
		t.Fatalf("peer 1 after the training give-up = %+v", h)
	}

	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	resync := svc.Snapshot().ResyncRows
	stale := svc.ServeSnapshot().StaleServeRows
	const serves = 3
	for i := 0; i < serves; i++ {
		st := svc.PlanServeGather(0, [][]int32{rows})
		svc.ServeGatherSync(st)
		checkFetched(t, st, rows, 8)
		st.Release()
	}
	if h := svc.PeerHealth()[1]; h.State != PeerDead || h.Redials != 0 {
		t.Fatalf("peer 1 after serving past its death = %+v, want dead with no redials", h)
	}
	if got := svc.Snapshot().ResyncRows; got != resync {
		t.Fatalf("ResyncRows %d -> %d: a dead peer was resynced", resync, got)
	}
	if got := svc.ServeSnapshot().StaleServeRows - stale; got != serves*int64(len(rows)) {
		t.Fatalf("StaleServeRows grew by %d, want %d", got, serves*len(rows))
	}
}
