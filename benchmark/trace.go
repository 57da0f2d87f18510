package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span names. The prefix before the dot is the layer (module) the time is
// attributed to.
const (
	spanStep         = "train.step"
	spanForward      = "embedding.forward"
	spanBackward     = "embedding.backward"
	spanSparseUpdate = "embedding.sparse_update"
	spanPrefetch     = "embedding.prefetch"
	spanFetch        = "shard.fetch"
	spanPush         = "shard.push"
	spanConnWrite    = "shard.conn_write"
	spanConnRead     = "shard.conn_read"
	spanRequest      = "serve.request"
	spanServeTrain   = "serve.train_step"
)

// Phases a span can fall in; per-layer train metrics use phaseTrain only.
const (
	phaseSetup = iota
	phaseTrain
	phaseServeA
	phaseServeB
)

// span is one timed interval recorded from outside the program. Parent is a
// span id (index+1 into the tracer's slice); 0 means no parent.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int32
	Step       int32 // root step id the span belongs to; -1 outside a step
	Table      int16 // embedding table; -1 when not applicable
	Owner      int16 // fabric peer; -1 when not applicable
	Phase      uint8
}

// tracer keeps spans in memory until the run ends. One mutex guards
// everything: the trainer goroutine, up to one gather drainer per node and
// the request players record concurrently, a few hundred spans per step.
//
// The trainer goroutine is the only one that nests spans (begin/end keep its
// stack). Transport spans come from any goroutine; their parent is decided
// when they END: the innermost open trainer span if it is a bag call on the
// same table — the call that ran the fetch inline or was blocked waiting for
// it — and none otherwise (a prefetch the overlap hid is nobody's child, so
// it is never subtracted from the compute it ran beside).
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int32   // open trainer-goroutine spans, innermost last
	openOp [][]int32 // per owner: open transport spans, oldest first
	step   int32     // current root step id, -1 outside a step
	nextID int32
	phase  uint8
}

func newTracer(owners int) *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		openOp: make([][]int32, owners),
		step:   -1,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) setPhase(p uint8) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// add appends an open span and returns its id. Caller holds t.mu.
func (t *tracer) add(name string, table, owner int) int32 {
	t.spans = append(t.spans, span{
		Name: name, Start: t.now(), Step: t.step,
		Table: int16(table), Owner: int16(owner), Phase: t.phase,
	})
	return int32(len(t.spans))
}

// begin opens a nested span on the trainer goroutine.
func (t *tracer) begin(name string, table int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == spanStep {
		t.step = t.nextID
		t.nextID++
	}
	id := t.add(name, table, -1)
	if n := len(t.stack); n > 0 {
		t.spans[id-1].Parent = t.stack[n-1]
	}
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost trainer span, which must be id.
func (t *tracer) end(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	if t.spans[id-1].Name == spanStep {
		t.step = -1
	}
}

// beginOp opens a transport span (any goroutine).
func (t *tracer) beginOp(name string, table, owner int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.add(name, table, owner)
	t.openOp[owner] = append(t.openOp[owner], id)
	return id
}

// endOp closes a transport span and resolves its parent (see tracer).
func (t *tracer) endOp(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	if n := len(t.stack); n > 0 {
		if top := &t.spans[t.stack[n-1]-1]; top.Table == s.Table {
			s.Parent = t.stack[n-1]
			s.Step = top.Step
		}
	}
	ops := t.openOp[s.Owner]
	i := slices.Index(ops, id)
	t.openOp[s.Owner] = slices.Delete(ops, i, i+1)
}

// leaf records a finished span with no children of its own. A conn span's
// parent is the oldest open transport span on its owner: the peer mutex
// hands the connection to waiting operations roughly in arrival order.
func (t *tracer) leaf(name string, owner int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Start: start, End: end, Step: -1, Table: -1, Owner: int16(owner), Phase: t.phase}
	if owner >= 0 && len(t.openOp[owner]) > 0 {
		s.Parent = t.openOp[owner][0]
		s.Step = t.spans[s.Parent-1].Step
	}
	t.spans = append(t.spans, s)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Children may run concurrently (one
// fetch per owner on the drainer goroutines while the parent waits), so the
// UNION of their intervals, clipped to the parent, is subtracted, never the
// sum.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := children[int32(i+1)]
		slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
		var covered, hi int64
		hi = s.Start
		for _, c := range ivs {
			if c.hi <= hi {
				continue
			}
			covered += c.hi - max(c.lo, hi)
			hi = c.hi
		}
		self[i] -= covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Threads are layers, not goroutines: overlapping fetches on one
// row render stacked.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tid := map[string]int{
		spanStep: 1, spanForward: 1, spanBackward: 1, spanSparseUpdate: 1, spanPrefetch: 1,
		spanFetch: 2, spanPush: 2, spanConnWrite: 3, spanConnRead: 3,
		spanRequest: 4, spanServeTrain: 5,
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid[s.Name],
			Args: map[string]int{"id": i + 1, "parent": int(s.Parent), "step": int(s.Step), "table": int(s.Table), "owner": int(s.Owner)},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
