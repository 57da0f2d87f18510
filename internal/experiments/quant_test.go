package experiments

import (
	"slices"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
)

// TestQuantCapacityFrontier is the acceptance gate for the precision-tiered
// caches, at exactly the mn-quant configuration: at one fixed HBM byte
// budget on the skewed Criteo stream, the tiered format must dominate the
// fp32-only cache — at least 2x the resident rows, strictly more hits,
// strictly fewer all-to-all bytes — with the quantization cost measured,
// not assumed away.
func TestQuantCapacityFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("functional training sweep; run without -short")
	}
	fn := data.CriteoKaggle()
	fn.Samples = 2048
	run := func(q shard.QuantMode) (shard.Stats, int) {
		r, err := quantProbe(fn, 10, q).Train(fn)
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats, r.Service.CacheEntries()
	}
	fp32, fp32Rows := run(shard.QuantOff)
	if fp32.QuantHits != 0 || fp32Rows == 0 {
		t.Fatalf("fp32 baseline must cache rows and serve no quantized hits: rows=%d quantHits=%d",
			fp32Rows, fp32.QuantHits)
	}

	for _, q := range []shard.QuantMode{shard.QuantFP16, shard.QuantINT8, shard.QuantMixed} {
		st, rows := run(q)
		if st.HitRate() <= fp32.HitRate() {
			t.Errorf("%s hit rate %.4f must strictly beat fp32's %.4f at the same budget",
				q, st.HitRate(), fp32.HitRate())
		}
		if st.A2ABytes() >= fp32.A2ABytes() {
			t.Errorf("%s moved %d all-to-all bytes, fp32 %d; the narrow tier must move strictly fewer",
				q, st.A2ABytes(), fp32.A2ABytes())
		}
		if st.QuantHits == 0 {
			t.Errorf("%s served no warm-tier hits; the fused kernel never ran", q)
		}
		if q == shard.QuantMixed && rows < 2*fp32Rows {
			t.Errorf("hot-fp32+warm-int8 holds %d rows vs %d fp32 at the same budget; want >= 2x",
				rows, fp32Rows)
		}
	}
}

// TestQuantOffBitIdentical is the inertness gate: two independent fp32-mode
// runs of the sweep configuration must agree bit for bit — exact per-step
// losses and exactly zero parameter divergence — so quantization-off
// provably changes nothing about training.
func TestQuantOffBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("functional training; run without -short")
	}
	fn := data.CriteoKaggle()
	fn.Samples = 2048
	p := quantProbe(fn, 6, shard.QuantOff)
	a, errA := p.Train(fn)
	b, errB := p.Train(fn)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !slices.Equal(a.Losses, b.Losses) {
		t.Fatalf("fp32 losses diverged:\n%v\n%v", a.Losses, b.Losses)
	}
	if d := model.MaxStateDiff(a.Model, b.Model); d != 0 {
		t.Fatalf("fp32 reruns diverged: max |Δw| = %g, want exactly 0", d)
	}
}
