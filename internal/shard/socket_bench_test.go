package shard

import (
	"testing"
	"time"
)

// flatRows is a contiguous rows×dim store and its RowAt view — the shape of
// the coordinator's mirror (embedding rows of one table).
func flatRows(rows, dim int) RowAt {
	store := make([]float32, rows*dim)
	for i := range store {
		store[i] = float32(i)
	}
	return func(r int32) []float32 { return store[int(r)*dim : (int(r)+1)*dim] }
}

// scatterStep is one training step's scatter at the fabric-unix workload's
// shape: 16 PushUpdates calls fanning out over 4 owners, 46 of the 64
// (call, owner) pairs non-empty at 130 rows × dim 64 each (1.5 MB a step),
// then one small fetch per owner — the next window's gather, which is where
// the pushes' acks are waited for.
type scatterStep struct {
	tr    *SocketTransport
	src   RowAt
	push  [][]int32 // push[i] goes to owner i%scatterOwners of table i/scatterOwners
	fetch []int32
	st    *Staging
}

const (
	scatterOwners = 4
	scatterCalls  = 16
	scatterRows   = 130
	scatterDim    = 64
)

func newScatterStep(tb testing.TB, tr *SocketTransport) *scatterStep {
	s := &scatterStep{tr: tr, src: flatRows(scatterRows, scatterDim)}
	rows := make([]int32, scatterRows)
	for i := range rows {
		rows[i] = int32(i)
	}
	s.push = make([][]int32, scatterCalls*scatterOwners)
	for i := range s.push {
		if i%7 < 5 { // 46 of 64
			s.push[i] = rows
		}
	}
	s.fetch = rows[:8]
	s.st = stagingFor(s.fetch, scatterDim)
	// Every owner holds table 0's rows before the first fetch asks for them.
	for o := 0; o < scatterOwners; o++ {
		if err := tr.Push(0, o, rows, s.src); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// bytes is the row payload one step pushes.
func (s *scatterStep) bytes() int64 {
	var n int64
	for _, rows := range s.push {
		n += int64(len(rows)) * scatterDim * 4
	}
	return n
}

// run executes one step and returns how long the pushes took: what the
// trainer waits for, as against the step's whole wall, which on a two-core
// box is mostly the node's decode-and-apply either way.
func (s *scatterStep) run(tb testing.TB) time.Duration {
	start := time.Now()
	for i, rows := range s.push {
		if err := s.tr.Push(i/scatterOwners, i%scatterOwners, rows, s.src); err != nil {
			tb.Fatal(err)
		}
	}
	pushed := time.Since(start)
	for o := 0; o < scatterOwners; o++ {
		if err := s.tr.Fetch(0, o, s.fetch, s.st, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return pushed
}

func BenchmarkSocketScatter(b *testing.B) {
	for _, network := range []string{"unix", "tcp"} {
		b.Run(network, func(b *testing.B) {
			f, err := StartLocalFabric(scatterOwners, network, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			s := newScatterStep(b, f.Transport)
			b.SetBytes(s.bytes())
			var pushed time.Duration
			for b.Loop() {
				pushed += s.run(b)
			}
			b.ReportMetric(float64(pushed.Microseconds())/float64(b.N), "push-µs/op")
		})
	}
}

// BenchmarkSocketFetchChunked times one fetch whose reply spans 12 frames
// (dim 512 packs 510 rows into a MaxFrame reply).
func BenchmarkSocketFetchChunked(b *testing.B) {
	const dim, n = 512, 6000
	b.Run("unix", func(b *testing.B) {
		f, err := StartLocalFabric(1, "unix", 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		if err := f.Transport.Push(0, 0, rows, flatRows(n, dim)); err != nil {
			b.Fatal(err)
		}
		st := stagingFor(rows, dim)
		b.SetBytes(n * dim * 4)
		for b.Loop() {
			if err := f.Transport.Fetch(0, 0, rows, st, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
