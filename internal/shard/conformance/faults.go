package conformance

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// faultSpec selects a failure mode. All faults are inert until armed — the
// dial-time hello must succeed so the fault lands mid-operation, where real
// fabrics break.
type faultSpec struct {
	readDelay  time.Duration // slow peer: delay every armed read
	truncAfter int64         // >0: EOF after this many armed read bytes
	dropWrite  bool          // swallow armed writes (frames vanish in flight)
	dropNext   *atomic.Bool  // swallow the next armed write only: exactly one frame vanishes
	dupWrite   bool          // send every armed frame twice
	corrupt    *atomic.Bool  // mangle the next armed read's first byte (the length prefix)
}

// faultConn wraps one peer connection with a faultSpec's failure mode.
type faultConn struct {
	net.Conn
	faultSpec
	armed     *atomic.Bool
	armedRead atomic.Int64
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.armed.Load() {
		if c.readDelay > 0 {
			time.Sleep(c.readDelay)
		}
		if c.truncAfter > 0 {
			rem := c.truncAfter - c.armedRead.Load()
			if rem <= 0 {
				return 0, io.EOF
			}
			if int64(len(p)) > rem {
				p = p[:rem]
			}
		}
	}
	n, err := c.Conn.Read(p)
	if c.armed.Load() {
		c.armedRead.Add(int64(n))
		if n > 0 && c.corrupt != nil && c.corrupt.CompareAndSwap(true, false) {
			p[0] |= 0xF0 // the length prefix's top byte: the frame turns oversized
		}
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		if c.dropWrite || (c.dropNext != nil && c.dropNext.CompareAndSwap(true, false)) {
			return len(p), nil // the transport writes one frame per Write
		}
		if c.dupWrite {
			if _, err := c.Conn.Write(p); err != nil {
				return 0, err
			}
		}
	}
	return c.Conn.Write(p)
}

// faultFabric starts a local fabric whose peer-0 connection is wrapped by
// the given template. The returned arm function activates the faults.
func faultFabric(t *testing.T, network string, timeout time.Duration, spec faultSpec) (*shard.LocalFabric, func()) {
	t.Helper()
	armed := &atomic.Bool{}
	f, err := shard.StartLocalFabric(2, network, timeout, func(owner int, c net.Conn) net.Conn {
		if owner != 0 {
			return c
		}
		return &faultConn{Conn: c, faultSpec: spec, armed: armed}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, func() { armed.Store(true) }
}

// seedRows pushes a deterministic table into node 0 before faults arm.
func seedRows(t *testing.T, f *shard.LocalFabric, rows []int32, dim int) shard.RowAt {
	t.Helper()
	src := patternRow(dim)
	if err := f.Transport.Push(0, 0, rows, src); err != nil {
		t.Fatalf("seed push: %v", err)
	}
	return src
}

func patternRow(dim int) shard.RowAt {
	buf := make([]float32, dim)
	return func(row int32) []float32 {
		for k := range buf {
			buf[k] = float32(row)*10 + float32(k)
		}
		return buf
	}
}

// fetchInto issues one Fetch of rows from owner 0 into a service-planned
// window, returning the transport's error.
func fetchInto(t *testing.T, tr shard.Transport, rows []int32, dim int) error {
	t.Helper()
	svc := shard.New(shard.Config{Nodes: 2, CacheBytes: 0, RowBytes: int64(dim) * 4}, nil)
	// Build an index set whose remote plan is exactly `rows` on owner 0:
	// batch position 1 (node 1) requesting rows owned by node 0 (even ids).
	idx := [][]int32{nil, rows}
	st := svc.PlanGather(0, idx)
	if st == nil {
		t.Fatal("fault probe plan is empty")
	}
	defer st.Release()
	return tr.Fetch(0, 0, rows, st, nil)
}

// RunFaults executes the fault-injection variants against a socket fabric
// on the given network ("unix" or "tcp"): dropped, duplicated, truncated
// and corrupted frames, a slow peer, and mid-window peer death. Every
// fault must surface as a typed fabric error — ErrPeerDead (wrapping the
// codec error where one applies) — without deadlocking, and must stay
// sticky so later operations fail fast.
func RunFaults(t *testing.T, network string) {
	const dim = 4
	evenRows := []int32{0, 2, 4, 6} // owned by node 0 under round-robin over 2 nodes

	t.Run("TruncatedFrame", func(t *testing.T) {
		f, arm := faultFabric(t, network, 0, faultSpec{truncAfter: 6})
		seedRows(t, f, evenRows, dim)
		arm()
		err := fetchInto(t, f.Transport, evenRows, dim)
		if !errors.Is(err, shard.ErrPeerDead) {
			t.Fatalf("truncated reply: got %v want ErrPeerDead", err)
		}
		// Sticky: the next operation fails fast with the same class.
		if err := f.Transport.Push(0, 0, evenRows, patternRow(dim)); !errors.Is(err, shard.ErrPeerDead) {
			t.Fatalf("push after truncation: got %v want ErrPeerDead", err)
		}
	})

	t.Run("CorruptLengthPrefix", func(t *testing.T) {
		corrupt := &atomic.Bool{}
		corrupt.Store(true)
		f, arm := faultFabric(t, network, 0, faultSpec{corrupt: corrupt})
		seedRows(t, f, evenRows, dim)
		arm()
		err := fetchInto(t, f.Transport, evenRows, dim)
		if !errors.Is(err, shard.ErrPeerDead) {
			t.Fatalf("corrupted prefix: got %v want ErrPeerDead", err)
		}
		if !errors.Is(err, shard.ErrFrameTooLarge) && !errors.Is(err, shard.ErrBadFrame) && !errors.Is(err, shard.ErrTruncatedFrame) {
			// The mangled prefix declares an absurd length; the codec error
			// class must survive the ErrPeerDead wrap.
			t.Fatalf("corrupted prefix lost its codec error: %v", err)
		}
	})

	t.Run("DroppedFrames", func(t *testing.T) {
		// Writes vanish: no reply ever comes, so the op must fail by
		// deadline rather than hang.
		f, arm := faultFabric(t, network, 300*time.Millisecond, faultSpec{dropWrite: true})
		seedRows(t, f, evenRows, dim)
		arm()
		start := time.Now()
		err := fetchInto(t, f.Transport, evenRows, dim)
		if !errors.Is(err, shard.ErrPeerDead) {
			t.Fatalf("dropped frame: got %v want ErrPeerDead", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("dropped frame took %v to surface (deadline not applied)", elapsed)
		}
	})

	t.Run("DuplicatedFrames", func(t *testing.T) {
		// Every request frame is sent twice: the node answers twice, the
		// fetch reads the first reply cleanly, and the stale duplicate sits
		// in the stream. A push does not read, so it goes through; the
		// duplicate must poison the first operation that does read — the
		// next fetch, reaping that push's ack, or Close — as a typed error.
		// Corruption is not retried, so the resilient layer reports it as is.
		for _, mode := range pipeModes {
			for _, reader := range []string{"fetch", "close"} {
				t.Run(mode.name+"/"+reader, func(t *testing.T) {
					fx := newPipeFixture(t, network, mode.resilient, 16, dim, 0, faultSpec{dupWrite: true})
					fx.arm()
					rows := fx.owned(0)
					if _, err := fx.fetch(t, rows); err != nil {
						t.Fatalf("first fetch under duplication: %v", err)
					}
					if err := fx.tr.Push(0, 0, rows, fx.src); err != nil {
						t.Fatalf("push behind a stale duplicate reply (it does not read): %v", err)
					}
					var err error
					if reader == "fetch" {
						_, err = fx.fetch(t, rows)
					} else {
						err = fx.tr.Close()
					}
					if !errors.Is(err, shard.ErrPeerDead) || !errors.Is(err, shard.ErrBadFrame) {
						t.Fatalf("%s after duplicated frame: got %v want ErrPeerDead wrapping ErrBadFrame", reader, err)
					}
				})
			}
		}
	})

	t.Run("SlowPeer", func(t *testing.T) {
		// A slow peer under a generous deadline completes — late, not
		// deadlocked — and the delay shows up in the measured wall time.
		const delay = 20 * time.Millisecond
		f, arm := faultFabric(t, network, 0, faultSpec{readDelay: delay})
		seedRows(t, f, evenRows, dim)
		arm()
		start := time.Now()
		if err := fetchInto(t, f.Transport, evenRows, dim); err != nil {
			t.Fatalf("slow peer fetch: %v", err)
		}
		if time.Since(start) < delay {
			t.Fatalf("slow peer fetch returned before the injected delay")
		}
	})

	t.Run("MidWindowPeerDeath", func(t *testing.T) {
		// A node process dies while prefetch windows are in flight: the
		// training loop must keep stepping (no deadlock — the drainers
		// retire their jobs with the error recorded) and the service must
		// report ErrPeerDead.
		cfg := probeCfg()
		fab, err := shard.StartLocalFabric(2, network, 500*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		svc := shard.New(shard.Config{
			Nodes: 2, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		svc.SetTransport(fab.Transport)
		defer svc.Close()
		tr := train.NewHotlineSharded(model.New(cfg, probeSeed), 0.1, svc)
		tr.Depth = 2
		tr.LearnSamples = probeLearn
		train.StepAll(tr, probeBatches(cfg), func(i int) {
			if i == 1 {
				fab.Kill(1) // the peer dies with a window open
			}
		})
		if err := svc.FabricErr(); !errors.Is(err, shard.ErrPeerDead) {
			t.Fatalf("fabric error after peer death: got %v want ErrPeerDead", err)
		}
	})
}
