package shard

import (
	"fmt"
	"sort"
)

// Ownership decides which node owns each embedding row: a deterministic,
// total function of (table, row) onto [0, Nodes). Non-uniform placements
// (capacity-weighted shards, popular rows co-located with their dominant
// requesters) plug into the Service's routing and traffic accounting — and,
// on a socket fabric, decide which node process stores a row — without
// touching any training math.
//
// Every placement is a repeating owner schedule (row r lives on
// schedule[r mod len]) under an optional table of pinned rows: round-robin is
// the schedule 0…N−1, capacity-weighted an interleaved one, and hot-aware is
// round-robin with its popular rows pinned.
type Ownership struct {
	kind     PlacementKind
	nodes    int
	schedule []int32          // repeating owner pattern, interleaved for balance
	pinned   map[uint64]int32 // hot-aware only: key(table,row) -> owner node
}

// PlacementKind names the ownership policies the substrate ships, for
// scenario sweeps and measurement memo keys.
type PlacementKind uint8

const (
	// PlaceRoundRobin is the uniform baseline: row r lives on node r mod N.
	PlaceRoundRobin PlacementKind = iota
	// PlaceCapacity spreads rows proportionally to per-node capacity weights.
	PlaceCapacity
	// PlaceHotAware co-locates popular rows with their dominant requesting
	// node and falls back to round-robin for the cold tail.
	PlaceHotAware
)

// String names the placement for reports.
func (k PlacementKind) String() string {
	switch k {
	case PlaceCapacity:
		return "capacity-weighted"
	case PlaceHotAware:
		return "hot-aware"
	}
	return "round-robin"
}

// Owner returns the node that owns row `row` of table `table`.
//
//hotline:hotpath
func (o *Ownership) Owner(table int, row int32) int {
	if o.pinned != nil {
		if n, ok := o.pinned[key(table, row)]; ok {
			return int(n)
		}
	}
	return int(o.schedule[int(row)%len(o.schedule)])
}

// Nodes returns the node count the placement spreads rows across.
func (o *Ownership) Nodes() int { return o.nodes }

// Kind returns the placement policy, for reports and measurement memo keys.
func (o *Ownership) Kind() PlacementKind { return o.kind }

// NewRoundRobin returns the uniform placement: row r of every table lives on
// node r mod nodes (the substrate's original hard-coded rule).
func NewRoundRobin(nodes int) *Ownership {
	if nodes < 1 {
		panic(fmt.Sprintf("shard: round-robin over %d nodes", nodes))
	}
	o := &Ownership{kind: PlaceRoundRobin, nodes: nodes, schedule: make([]int32, nodes)}
	for n := range o.schedule {
		o.schedule[n] = int32(n)
	}
	return o
}

// NewCapacityWeighted spreads rows in proportion to integer per-node
// capacity weights (a heterogeneous cluster where some nodes hold more HBM
// than others). Ownership follows a fixed repeating schedule that
// interleaves nodes — weights {2, 1, 1} yield the pattern 0 1 2 0 — so
// consecutive rows still spread across nodes while node n ends up with
// weights[n]/sum of every table. A zero weight is allowed (the node owns no
// rows but still deals samples and caches replicas).
func NewCapacityWeighted(weights []int) *Ownership {
	if len(weights) == 0 {
		panic("shard: capacity-weighted with no weights")
	}
	maxW, total := 0, 0
	for n, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("shard: negative capacity weight %d for node %d", w, n))
		}
		if w > maxW {
			maxW = w
		}
		total += w
	}
	if total == 0 {
		panic("shard: capacity-weighted with all-zero weights")
	}
	o := &Ownership{kind: PlaceCapacity, nodes: len(weights), schedule: make([]int32, 0, total)}
	for round := 0; round < maxW; round++ {
		for n, w := range weights {
			if round < w {
				o.schedule = append(o.schedule, int32(n))
			}
		}
	}
	return o
}

// NewCapacityWeightedHBM derives the capacity-weighted placement from real
// per-node HBM byte budgets — each node's device-memory allowance for its
// embedding shard (e.g. its shard.Config cache budget on a heterogeneous
// cluster) — instead of hand-picked demo weights. The weight of node n is
// how many rowBytes-sized embedding rows its budget holds; weights are
// reduced by their GCD so the repeating ownership schedule stays short.
// A node whose budget holds no full row gets weight zero (it owns no rows
// but still deals samples and caches replicas); at least one budget must
// hold a row.
func NewCapacityWeightedHBM(hbmBytes []int64, rowBytes int64) *Ownership {
	if len(hbmBytes) == 0 {
		panic("shard: capacity-weighted placement with no HBM budgets")
	}
	if rowBytes < 4 {
		panic(fmt.Sprintf("shard: capacity-weighted placement with row footprint %d", rowBytes))
	}
	weights := make([]int, len(hbmBytes))
	g := 0
	for n, b := range hbmBytes {
		if b < 0 {
			panic(fmt.Sprintf("shard: negative HBM budget %d for node %d", b, n))
		}
		weights[n] = int(b / rowBytes)
		g = gcd(g, weights[n])
	}
	if g == 0 {
		panic(fmt.Sprintf("shard: no HBM budget in %v holds one %d-byte row", hbmBytes, rowBytes))
	}
	for n := range weights {
		weights[n] /= g
	}
	return NewCapacityWeighted(weights)
}

// gcd returns the greatest common divisor (gcd(0, b) = b).
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RequestCounter tallies, per (table, row), how often each node requests the
// row, with samples dealt to nodes round-robin by batch position exactly
// like Service.NodeOf. Feed it the access stream the placement should
// optimise for (the learning-phase profile), then build the hot-aware
// placement from the tallies.
type RequestCounter struct {
	nodes  int
	counts map[uint64][]int64 // key(table,row) -> per-node request counts
}

// NewRequestCounter returns an empty counter for a topology of `nodes` nodes.
func NewRequestCounter(nodes int) *RequestCounter {
	if nodes < 1 {
		panic(fmt.Sprintf("shard: request counter over %d nodes", nodes))
	}
	return &RequestCounter{nodes: nodes, counts: make(map[uint64][]int64)}
}

// Observe tallies one bag access set (indices[b] lists the rows batch
// position b touches; position b is dealt to node b mod nodes).
func (rc *RequestCounter) Observe(table int, indices [][]int32) {
	for b := range indices {
		node := b % rc.nodes
		for _, ix := range indices[b] {
			k := key(table, ix)
			c := rc.counts[k]
			if c == nil {
				c = make([]int64, rc.nodes)
				rc.counts[k] = c
			}
			c[node]++
		}
	}
}

// HotAware builds the hot-row-aware placement: every observed row the
// classifier marks popular is pinned to the node that requested it most
// (ties break toward the lowest node id), so the heaviest request stream
// for each popular row becomes local and its gather and gradient-scatter
// messages disappear. Rows the classifier rejects — and rows never observed
// — keep the round-robin fallback. A nil classifier pins every observed row.
func (rc *RequestCounter) HotAware(hot HotClassifier) *Ownership {
	o := NewRoundRobin(rc.nodes)
	o.kind, o.pinned = PlaceHotAware, make(map[uint64]int32)
	// Sorted key walk: map iteration order must not leak into anything
	// observable (each key is pinned once, but a deterministic walk keeps
	// the build reproducible under -race and easy to debug).
	keys := make([]uint64, 0, len(rc.counts))
	for k := range rc.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		table, row := int(k>>32), int32(uint32(k))
		if hot != nil && !hotBit(hot.HotBits(table), row) {
			continue
		}
		best, c := 0, rc.counts[k]
		for n := 1; n < rc.nodes; n++ {
			if c[n] > c[best] {
				best = n
			}
		}
		o.pinned[k] = int32(best)
	}
	return o
}
