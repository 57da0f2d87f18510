package shard

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fabricTimeout derives the fabric's per-op timeout from the test's own
// deadline so a hung socket fails the test loudly instead of timing the
// whole run out (the deflake contract: no fixed sleeps, no fixed ports).
func fabricTimeout(t *testing.T) time.Duration {
	if d, ok := t.Deadline(); ok {
		if rem := time.Until(d) / 2; rem < DefaultIOTimeout {
			return rem
		}
	}
	return DefaultIOTimeout
}

// stagingFor builds a bare staging buffer keyed by the given rows.
func stagingFor(rows []int32, dim int) *Staging {
	st := &Staging{dim: dim, buf: make([]float32, len(rows)*dim)}
	st.reserve(len(rows))
	for _, r := range rows {
		st.claim(r)
	}
	return st
}

// rowPattern yields a deterministic, row-distinct payload.
func rowPattern(dim int) RowAt {
	buf := make([]float32, dim)
	return func(row int32) []float32 {
		for k := range buf {
			buf[k] = float32(row)*1000 + float32(k)
		}
		return buf
	}
}

func checkFetched(t *testing.T, st *Staging, rows []int32, dim int) {
	t.Helper()
	for _, r := range rows {
		v, ok := st.Lookup(r)
		if !ok {
			t.Fatalf("row %d missing from staging", r)
		}
		for k := 0; k < dim; k++ {
			if want := float32(r)*1000 + float32(k); v[k] != want {
				t.Fatalf("row %d[%d] = %v want %v", r, k, v[k], want)
			}
		}
	}
}

func testFabricRoundTrip(t *testing.T, network string) {
	const dim = 8
	f, err := StartLocalFabric(2, network, fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := f.Transport

	rows := []int32{0, 2, 4, 6}
	if err := tr.Push(1, 0, rows, rowPattern(dim)); err != nil {
		t.Fatalf("push: %v", err)
	}
	st := stagingFor(rows, dim)
	if err := tr.Fetch(1, 0, rows, st, nil); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	checkFetched(t, st, rows, dim)

	// A row the node never received is a typed application error that
	// leaves the connection healthy.
	if err := tr.Fetch(1, 0, []int32{99}, stagingFor([]int32{99}, dim), nil); !errors.Is(err, ErrUnknownRow) {
		t.Fatalf("unknown row: got %v want ErrUnknownRow", err)
	}
	st2 := stagingFor(rows, dim)
	if err := tr.Fetch(1, 0, rows, st2, nil); err != nil {
		t.Fatalf("fetch after unknown-row error: %v", err)
	}
	checkFetched(t, st2, rows, dim)

	if s := f.Servers[0].Stats(); s.RowsStored != int64(len(rows)) || s.RowsHeld != len(rows) {
		t.Fatalf("node 0 stats = %+v", s)
	}
}

func TestSocketFabricUnix(t *testing.T) { testFabricRoundTrip(t, "unix") }

func TestSocketFabricTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("unix sockets only in -short (CI deflake contract)")
	}
	testFabricRoundTrip(t, "tcp")
}

// TestSocketFabricChunking pushes and fetches a row list whose frames would
// exceed MaxFrame unchunked, so both directions must split.
func TestSocketFabricChunking(t *testing.T) {
	const dim = 512
	const n = 1500 // ≈3 frames at (MaxFrame-64)/(5+4*512)
	if maxRowsPerFrame(dim) >= n {
		t.Fatalf("test geometry no longer chunks: %d rows/frame", maxRowsPerFrame(dim))
	}
	f, err := StartLocalFabric(1, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	if err := f.Transport.Push(0, 0, rows, rowPattern(dim)); err != nil {
		t.Fatalf("push: %v", err)
	}
	st := stagingFor(rows, dim)
	if err := f.Transport.Fetch(0, 0, rows, st, nil); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	checkFetched(t, st, rows, dim)
	if s := f.Servers[0].Stats(); s.FetchFrames < 2 || s.PushFrames < 2 {
		t.Fatalf("expected chunked frames, got %+v", s)
	}
}

// TestSocketPeerDeathIsSticky kills a node process mid-run: the first
// operation fails with ErrPeerDead, and every later one fails fast with the
// same error instead of hanging on the broken conn.
func TestSocketPeerDeathIsSticky(t *testing.T) {
	const dim = 4
	f, err := StartLocalFabric(2, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := []int32{1, 3}
	if err := f.Transport.Push(0, 1, rows, rowPattern(dim)); err != nil {
		t.Fatal(err)
	}
	f.Kill(1)
	for i := 0; i < 2; i++ {
		err := f.Transport.Fetch(0, 1, rows, stagingFor(rows, dim), nil)
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("fetch %d from dead peer: got %v want ErrPeerDead", i, err)
		}
	}
	// The other peer is unaffected.
	if err := f.Transport.Push(0, 0, rows, rowPattern(dim)); err != nil {
		t.Fatalf("healthy peer after neighbour died: %v", err)
	}
}

func TestSocketTransportClosedOps(t *testing.T) {
	f, err := StartLocalFabric(1, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Transport.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Transport.Close(); err != nil {
		t.Fatal("second transport Close:", err)
	}
	err = f.Transport.Fetch(0, 0, []int32{0}, stagingFor([]int32{0}, 4), nil)
	if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerDead) {
		t.Fatalf("op on closed transport: %v", err)
	}
}

func TestNodeServerCloseIdempotent(t *testing.T) {
	srv, err := ServeNode(0, "unix", t.TempDir()+"/n.sock", 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	wg.Wait()
	srv.Close()
}

// TestServiceCloseIdempotent is the lifecycle regression test: double-Close
// (including concurrent double-Close) is race-clean, and a prefetch window
// still in flight at Close time can still be awaited and consumed — the
// drainers retire, but consumers help drain.
func TestServiceCloseIdempotent(t *testing.T) {
	f := newWindowFixture(t, 16, 4)
	st := f.issue([][]int32{{1, 3}, {1, 3}})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.svc.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := f.svc.Close(); err != nil {
		t.Fatal("Close after concurrent Close:", err)
	}

	// The open window survives Close: Consume still delivers the staged
	// bits.
	st.Consume()
	if v, ok := st.Lookup(3); !ok || v[0] != 300 {
		t.Fatalf("staged row 3 = %v, %v", v, ok)
	}
	st.Release()
}

// TestServiceCloseWithSocketFabric closes a service whose transport is a
// live socket fabric: the transport must come down with it, idempotently.
func TestServiceCloseWithSocketFabric(t *testing.T) {
	f, err := StartLocalFabric(2, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	svc := New(Config{Nodes: 2, CacheBytes: 0, RowBytes: 16}, hotSet(0))
	svc.SetTransport(f.Transport)
	if !svc.Multiproc() {
		t.Fatal("socket fabric not marked multiproc")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	err = f.Transport.Push(0, 0, []int32{0}, rowPattern(4))
	if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerDead) {
		t.Fatalf("push on closed fabric: %v", err)
	}
}

// silentNode listens on network, answers each connection's hello and then
// reads whatever else arrives without ever replying — a peer that hangs
// with its socket open. It returns the address to dial.
func silentNode(t *testing.T, network string) string {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = t.TempDir() + "/silent.sock"
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				if _, err := readFrame(c, nil); err != nil {
					return
				}
				if writeFrame(c, appendMsg(make([]byte, 4), &wireMsg{op: opAck})) != nil {
					return
				}
				io.Copy(io.Discard, c) // until the coordinator hangs up
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSocketCloseUnblocksHungPeer is the regression test for Close waiting
// behind a blocked operation: a fetch sits in its read against a peer that
// went silent, with a 5 s IO timeout, and Close must return in a fraction of
// that — it closes the conn under the fetch, which fails typed.
func TestSocketCloseUnblocksHungPeer(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			if network == "tcp" && testing.Short() {
				t.Skip("unix sockets only in -short (CI deflake contract)")
			}
			tr, err := DialFabric(FabricConfig{
				Network: network, Addrs: []string{silentNode(t, network)},
				Timeouts: FabricTimeouts{IO: 5 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := []int32{0, 1}
			if err := tr.Push(0, 0, rows, rowPattern(4)); err != nil {
				t.Fatalf("push to a silent peer (it does not read): %v", err)
			}
			blocked := make(chan error, 1)
			go func() { blocked <- tr.Fetch(0, 0, rows, stagingFor(rows, 4), nil) }()
			for tr.peers[0].mu.TryLock() { // until the fetch holds the peer
				tr.peers[0].mu.Unlock()
				runtime.Gosched()
			}
			start := time.Now()
			tr.Close()
			if d := time.Since(start); d > 250*time.Millisecond {
				t.Fatalf("Close took %v behind a fetch blocked on a silent peer", d)
			}
			if err := <-blocked; !errors.Is(err, ErrPeerDead) && !errors.Is(err, ErrClosed) {
				t.Fatalf("fetch interrupted by Close: got %v want ErrPeerDead or ErrClosed", err)
			}
		})
	}
}

// dropConn swallows the next write once armed: one frame vanishes in flight.
type dropConn struct {
	net.Conn
	drop *atomic.Bool
}

func (c *dropConn) Write(p []byte) (int, error) {
	if c.drop.CompareAndSwap(true, false) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestSocketCloseReportsLostPush: the last push of a run is lost in flight
// and nothing reads after it. Close is the operation that reaps its ack, so
// Close reports the loss — through the service too, as a fabric error — and
// does so within its grace, not after an IO timeout.
func TestSocketCloseReportsLostPush(t *testing.T) {
	drop := &atomic.Bool{}
	f, err := StartLocalFabric(2, "unix", 5*time.Second, func(owner int, c net.Conn) net.Conn {
		return &dropConn{Conn: c, drop: drop}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	svc := New(Config{Nodes: 2, CacheBytes: 0, RowBytes: 16}, hotSet(0))
	svc.SetTransport(f.Transport)
	src := rowPattern(4)
	svc.RegisterTable(0, 8, src)
	drop.Store(true)
	svc.PushUpdates(0, []int32{1}, src)
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("a push lost in flight cannot fail yet: %v", err)
	}
	start := time.Now()
	err = svc.Close()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("Close after a lost final push: got %v want ErrPeerDead", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v to give up on the missing ack", d)
	}
	if !errors.Is(svc.FabricErr(), ErrPeerDead) {
		t.Fatalf("lost final push not recorded as a fabric error: %v", svc.FabricErr())
	}
	if err := svc.Close(); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("second Close: got %v want the first call's result", err)
	}
}

// TestSocketRedialForgetsOwedAcks: a peer dies owing acks and is re-dialed
// onto a fresh process. The new stream owes nothing — were the count kept,
// the next reap would wait an IO timeout per ack the dead conn took along.
func TestSocketRedialForgetsOwedAcks(t *testing.T) {
	f, err := StartLocalFabric(1, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := f.Transport
	rows := []int32{0, 1, 2}
	for i := 0; i < 3; i++ {
		if err := tr.Push(0, 0, rows, rowPattern(4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.OwedAcks(0); got != 3 {
		t.Fatalf("%d acks owed after 3 pushes", got)
	}
	f.Kill(0)
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	tr.setPeerAddr(0, f.Servers[0].Addr())
	if err := tr.redialPeer(0); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if got := tr.OwedAcks(0); got != 0 {
		t.Fatalf("%d acks owed on a freshly dialed stream", got)
	}
	// The stream is in step: a push and the fetch that reaps it both work.
	if err := tr.Push(0, 0, rows, rowPattern(4)); err != nil {
		t.Fatal(err)
	}
	st := stagingFor(rows, 4)
	if err := tr.Fetch(0, 0, rows, st, nil); err != nil {
		t.Fatal(err)
	}
	checkFetched(t, st, rows, 4)
}

// TestLocalFabricKillRestart pins the node lifecycle the recovery paths are
// proven with: a killed node resolves to nothing and fails fetches typed, a
// restarted one is empty at an address it never had, and Close leaves no
// node, no pending restart and no goroutine behind — a restart that Close
// cancelled starts nothing, and one that races Close does not outlive it.
func TestLocalFabricKillRestart(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			if network == "tcp" && testing.Short() {
				t.Skip("unix sockets only in -short (CI deflake contract)")
			}
			base := runtime.NumGoroutine()
			f, err := StartLocalFabric(2, network, fabricTimeout(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rows := []int32{1, 3}
			if err := f.Transport.Push(0, 1, rows, rowPattern(4)); err != nil {
				t.Fatal(err)
			}
			killed, _ := f.Resolve(1)

			f.Kill(1)
			if addr, err := f.Resolve(1); addr != "" || err != nil {
				t.Fatalf("Resolve of a killed node = %q, %v; want \"\", nil", addr, err)
			}
			if err := f.Transport.Fetch(0, 1, rows, stagingFor(rows, 4), nil); !errors.Is(err, ErrPeerDead) {
				t.Fatalf("fetch from a killed node: got %v want ErrPeerDead", err)
			}

			if err := f.Restart(1); err != nil {
				t.Fatal(err)
			}
			addr, _ := f.Resolve(1)
			if addr == "" || addr == killed {
				t.Fatalf("restarted node listens at %q, killed one was at %q", addr, killed)
			}
			if s := f.Servers[1].Stats(); s.RowsHeld != 0 {
				t.Fatalf("restarted node holds %d rows, want an empty store", s.RowsHeld)
			}

			f.Kill(0)
			f.Kill(1)
			f.RestartAfter(0, 0)         // races Close
			f.RestartAfter(1, time.Hour) // cancelled by Close: were it not, Close would wait an hour
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.Restart(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("Restart after Close: got %v want ErrClosed", err)
			}
			for n, s := range f.Servers {
				if s != nil {
					t.Fatalf("node %d has a server after Close", n)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the fabric", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestSocketUnknownRowMidPipeline: an unknown row in the first chunk of a
// pipelined fetch is a typed application error, and the replies of the
// chunks already requested are read off, so the stream stays in step.
func TestSocketUnknownRowMidPipeline(t *testing.T) {
	const dim = 2048
	chunk := maxRowsPerFrame(dim)
	if fetchAhead(chunk) < 3 {
		t.Fatalf("test geometry no longer pipelines: %d requests ahead", fetchAhead(chunk))
	}
	f, err := StartLocalFabric(1, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	known := make([]int32, 3*chunk)
	for i := range known {
		known[i] = int32(i)
	}
	if err := f.Transport.Push(0, 0, known, rowPattern(dim)); err != nil {
		t.Fatal(err)
	}
	rows := append([]int32{1 << 20}, known[1:]...) // the first chunk asks for a row nobody pushed
	if err := f.Transport.Fetch(0, 0, rows, stagingFor(rows, dim), nil); !errors.Is(err, ErrUnknownRow) {
		t.Fatalf("unknown row in chunk 1 of 3: got %v want ErrUnknownRow", err)
	}
	st := stagingFor(known, dim)
	if err := f.Transport.Fetch(0, 0, known, st, nil); err != nil {
		t.Fatalf("fetch after a mid-pipeline unknown row: %v", err)
	}
	checkFetched(t, st, known[len(known)-3:], dim)
}

// TestSocketSteadyStateZeroAlloc gates the socket path's allocation
// contract: once the scratch buffers have grown, a push and the fetch that
// reaps its ack allocate nothing — on the coordinator or on the node, which
// serves in this process (AllocsPerRun counts every goroutine's mallocs).
func TestSocketSteadyStateZeroAlloc(t *testing.T) {
	f, err := StartLocalFabric(1, "unix", fabricTimeout(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := f.Transport
	const dim = 64
	rows := make([]int32, 130)
	for i := range rows {
		rows[i] = int32(i)
	}
	src := flatRows(len(rows), dim)
	st := stagingFor(rows, dim)
	step := func() {
		if err := tr.Push(0, 0, rows, src); err != nil {
			t.Fatal(err)
		}
		if err := tr.Fetch(0, 0, rows, st, nil); err != nil {
			t.Fatal(err)
		}
	}
	step() // grow the scratch on both sides
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state socket push+fetch allocates %.1f times per op, want 0", allocs)
	}
}
