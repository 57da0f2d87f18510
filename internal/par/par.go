package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride holds the configured worker count; 0 means "auto"
// (runtime.NumCPU()).
var workerOverride atomic.Int64

// SetWorkers sets the worker count used by all parallel kernels and returns
// the previous setting. n <= 0 restores the default (NumCPU). Safe for
// concurrent use, though callers normally set it once at startup.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// Workers returns the effective worker count (>= 1).
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// minShardWork is the minimum number of scalar operations a shard must carry
// before forking is worth a goroutine handoff. A fork costs about 15 us on
// the 2-vCPU reference box, and the dense kernels retire about 20 of these
// operations per nanosecond on vector lanes (5 in scalar Go): at 1<<15 a
// 256x13x64 MatMul (426k operations) took 22 us on one worker and 35 us on
// two. At 1<<18 the smallest loop that forks carries about 27 us of vector
// work, where two workers break even, or 110 us of scalar work.
const minShardWork = 1 << 18

// Serial reports whether a kernel over n items of perItem scalar ops each
// should run serially: a single worker, or total work below the forking
// threshold. Hot kernels branch on it and run their loop body directly in
// the serial case instead of building a closure for ForWork — a closure
// passed to ForWork escapes to the heap even when ForWork would take its
// own serial path, and the steady-state training loop must not allocate.
func Serial(n int, perItem int64) bool {
	if n <= 0 {
		return true
	}
	if perItem < 1 {
		perItem = 1
	}
	return Workers() <= 1 || int64(n)*perItem < 2*minShardWork
}

// ForWork runs fn over contiguous shards covering [0, n). perItem estimates
// the scalar-operation cost of one item; loops whose total work is below
// 2*minShardWork — or when Workers() == 1 — run serially as fn(0, n) on the
// calling goroutine.
//
// fn must compute items independently: no cross-item accumulation may span a
// shard boundary (see the package determinism contract).
func ForWork(n int, perItem int64, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if perItem < 1 {
		perItem = 1
	}
	if w <= 1 || int64(n)*perItem < 2*minShardWork {
		fn(0, n)
		return
	}
	itemsPerShard := int(minShardWork / perItem)
	if itemsPerShard < 1 {
		itemsPerShard = 1
	}
	shards := (n + itemsPerShard - 1) / itemsPerShard
	if shards > w {
		shards = w
	}
	if shards <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	var trap panicTrap
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer trap.capture()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	trap.repanic()
}

// panicTrap forwards the first panic from a worker goroutine to the caller,
// so a panic inside a parallel kernel behaves like its serial counterpart —
// recoverable by the caller (the sweep's per-experiment capture relies on
// this) instead of crashing the process from an unjoined goroutine.
type panicTrap struct {
	mu  sync.Mutex
	val any
}

// capture is deferred inside each worker goroutine.
func (p *panicTrap) capture() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if p.val == nil {
			p.val = r
		}
		p.mu.Unlock()
	}
}

// repanic rethrows the first captured panic on the calling goroutine. Must
// run after every worker has been joined.
func (p *panicTrap) repanic() {
	if p.val != nil {
		panic(p.val)
	}
}

// Go runs fn(w) for w in [0, n) on n concurrently running goroutines and
// waits for all of them. Unlike ForWork, the concurrency is the caller's
// choice and ignores the global worker knob: Go's workers are request
// players and other blocking loops — they spend their life in sleeps and
// lock waits, not arithmetic — so serialising them on a 1-CPU box would
// change semantics, not just speed. n == 1 runs inline. Panics propagate to
// the caller after every worker has been joined.
func Go(n int, fn func(worker int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	var trap panicTrap
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer trap.capture()
			fn(w)
		}(w)
	}
	func() {
		defer trap.capture()
		fn(0)
	}()
	wg.Wait()
	trap.repanic()
}

// Do runs the given thunks concurrently (bounded only by their count) and
// waits for all of them. With Workers() == 1 the thunks run sequentially in
// order. The train layer uses this for the popular / non-popular µ-batch
// passes, whose gradients are later reduced in fixed index order.
func Do(thunks ...func()) {
	if Workers() <= 1 || len(thunks) <= 1 {
		for _, f := range thunks {
			f()
		}
		return
	}
	var wg sync.WaitGroup
	var trap panicTrap
	for _, f := range thunks[1:] {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			defer trap.capture()
			f()
		}(f)
	}
	func() {
		defer trap.capture()
		thunks[0]()
	}()
	wg.Wait()
	trap.repanic()
}
