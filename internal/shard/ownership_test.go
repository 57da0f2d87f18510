package shard

import "testing"

func TestRoundRobinOwnership(t *testing.T) {
	p := NewRoundRobin(4)
	if p.Nodes() != 4 || p.Kind() != PlaceRoundRobin {
		t.Fatalf("round-robin identity: %d %v", p.Nodes(), p.Kind())
	}
	for r := int32(0); r < 32; r++ {
		if p.Owner(3, r) != int(r)%4 {
			t.Fatalf("row %d owner %d", r, p.Owner(3, r))
		}
	}
}

func TestCapacityWeightedProportions(t *testing.T) {
	p := NewCapacityWeighted([]int{2, 1, 1})
	if p.Nodes() != 3 {
		t.Fatalf("nodes = %d", p.Nodes())
	}
	counts := make([]int, 3)
	const rows = 4000
	for r := int32(0); r < rows; r++ {
		counts[p.Owner(0, r)]++
	}
	if counts[0] != rows/2 || counts[1] != rows/4 || counts[2] != rows/4 {
		t.Fatalf("weighted spread: %v", counts)
	}
	// Zero-weight nodes own nothing but stay part of the topology.
	z := NewCapacityWeighted([]int{1, 0})
	for r := int32(0); r < 16; r++ {
		if z.Owner(0, r) != 0 {
			t.Fatalf("zero-weight node owns row %d", r)
		}
	}
}

func TestCapacityWeightedValidation(t *testing.T) {
	for _, weights := range [][]int{nil, {}, {0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v must panic", weights)
				}
			}()
			NewCapacityWeighted(weights)
		}()
	}
}

func TestCapacityWeightedHBMBudgets(t *testing.T) {
	// Real per-node HBM byte budgets: 32 KB / 16 KB / 16 KB / 8 KB at 64 B
	// per row hold 512 / 256 / 256 / 128 rows -> weights reduce to 4:2:2:1.
	p := NewCapacityWeightedHBM([]int64{32 << 10, 16 << 10, 16 << 10, 8 << 10}, 64)
	if p.Nodes() != 4 || p.Kind() != PlaceCapacity {
		t.Fatalf("identity: %d %v", p.Nodes(), p.Kind())
	}
	counts := make([]int, 4)
	const rows = 9000
	for r := int32(0); r < rows; r++ {
		counts[p.Owner(0, r)]++
	}
	if counts[0] != rows*4/9 || counts[1] != rows*2/9 || counts[2] != rows*2/9 || counts[3] != rows/9 {
		t.Fatalf("HBM-derived spread: %v", counts)
	}
	// A budget below one row means the node owns no rows (but stays in the
	// topology); byte remainders below a full row are ignored.
	q := NewCapacityWeightedHBM([]int64{130, 63}, 64) // 2 rows vs 0 rows
	for r := int32(0); r < 16; r++ {
		if q.Owner(0, r) != 0 {
			t.Fatalf("sub-row budget node owns row %d", r)
		}
	}
}

func TestCapacityWeightedHBMValidation(t *testing.T) {
	cases := []struct {
		budgets  []int64
		rowBytes int64
	}{
		{nil, 64},                  // no budgets
		{[]int64{}, 64},            // no budgets
		{[]int64{1 << 20}, 0},      // invalid row footprint
		{[]int64{-1, 1 << 20}, 64}, // negative budget
		{[]int64{63, 63}, 64},      // no budget holds one row
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("budgets %v rowBytes %d must panic", c.budgets, c.rowBytes)
				}
			}()
			NewCapacityWeightedHBM(c.budgets, c.rowBytes)
		}()
	}
}

func TestHotAwarePinsPerTableWithFallback(t *testing.T) {
	// Row 7 (round-robin owner 3) is requested only by node 2 in table 0 and
	// only by node 1 in table 1; row 6 is never observed.
	rc := NewRequestCounter(4)
	rc.Observe(0, [][]int32{nil, nil, {7}})
	rc.Observe(1, [][]int32{nil, {7}})
	p := rc.HotAware(nil)
	if got := p.Owner(0, 7); got != 2 {
		t.Fatalf("pin ignored: %d", got)
	}
	if got := p.Owner(1, 7); got != 1 {
		t.Fatalf("per-table pin: %d", got)
	}
	if got := p.Owner(0, 6); got != 2 {
		t.Fatalf("fallback row: %d", got)
	}
}

func TestHotAwarePinsDominantRequester(t *testing.T) {
	rc := NewRequestCounter(4)
	// Row 8 (round-robin owner 0) is requested overwhelmingly by batch
	// positions dealt to node 2 (positions 2, 6, 10, ...).
	idx := make([][]int32, 12)
	for b := range idx {
		if b%4 == 2 {
			idx[b] = []int32{8, 8}
		} else {
			idx[b] = []int32{9}
		}
	}
	rc.Observe(0, idx)
	p := rc.HotAware(hotSet(0, 8)) // only row 8 is popular
	if got := p.Owner(0, 8); got != 2 {
		t.Fatalf("hot row must follow its dominant requester: node %d", got)
	}
	// Row 9 was observed but is not popular: round-robin fallback.
	if got := p.Owner(0, 9); got != 1 {
		t.Fatalf("cold row must keep round-robin: node %d", got)
	}
	if p.Kind() != PlaceHotAware {
		t.Fatalf("kind = %v", p.Kind())
	}
}

func TestHotAwareReducesTrafficOnSkew(t *testing.T) {
	// A skewed synthetic stream: a small popular head accessed every batch,
	// a rotating cold tail. Hot-aware ownership must strictly reduce the
	// all-to-all volume vs round-robin on the identical stream, because the
	// pinned owner is always one of the row's requesters.
	const nodes, batchN, iters = 4, 16, 30
	stream := func(it int) [][]int32 {
		idx := make([][]int32, batchN)
		for b := range idx {
			// Head rows 0..3 dominate, each with a two-node requester set
			// that mostly differs from its round-robin owner; tail rows
			// rotate per iteration.
			head := int32((b % 8) / 2)
			idx[b] = []int32{head, int32(64 + (it*batchN+b)%192)}
		}
		return idx
	}
	hot := hotSet(0, 0, 1, 2, 3)
	run := func(part *Ownership) Stats {
		svc := register(New(Config{Nodes: nodes, CacheBytes: 0, RowBytes: 64, Part: part}, hot), 256, 0)
		for it := 0; it < iters; it++ {
			idx := stream(it)
			svc.RecordGather(0, idx)
			svc.RecordScatter(0, idx)
		}
		return svc.Snapshot()
	}
	rc := NewRequestCounter(nodes)
	for it := 0; it < iters; it++ {
		rc.Observe(0, stream(it))
	}
	rr := run(NewRoundRobin(nodes))
	ha := run(rc.HotAware(hot))
	if ha.A2ABytes() >= rr.A2ABytes() {
		t.Fatalf("hot-aware a2a %d must be < round-robin %d", ha.A2ABytes(), rr.A2ABytes())
	}
	if ha.LocalFrac() <= rr.LocalFrac() {
		t.Fatalf("hot-aware local frac %g must exceed round-robin %g",
			ha.LocalFrac(), rr.LocalFrac())
	}
}

func TestServiceRejectsMismatchedOwnership(t *testing.T) {
	cfg := Config{Nodes: 4, CacheBytes: 0, RowBytes: 64, Part: NewRoundRobin(2)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("placement/node mismatch must fail validation")
	}
}
