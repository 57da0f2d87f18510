package train

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// wedgeTimeout is how long a step or a request may take before the tests
// below call the parameter lock wedged. The race detector does not see a
// deadlock; a timeout does.
const wedgeTimeout = 10 * time.Second

// within runs f on its own goroutine and fails the test when it has not
// returned after wedgeTimeout. f must not call t.Fatal.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(wedgeTimeout):
		t.Fatalf("%s did not finish within %v", what, wedgeTimeout)
	}
}

// bitsOf copies a served answer out of the caller's buffer as its bits.
func bitsOf(probs []float32) []uint32 {
	out := make([]uint32, len(probs))
	for i, p := range probs {
		out[i] = math.Float32bits(p)
	}
	return out
}

// boundaryAnswers trains tr on batches alone, at its own depth, and records
// the read-path answer to probe before the first step and after every step:
// refs[k] is what a request must be answered with once k updates have been
// applied.
func boundaryAnswers(tr Trainer, batches []*data.Batch, probe *data.Batch) (refs [][]uint32, losses []float64) {
	replica := model.NewShadow(tr.Model())
	refs = append(refs, bitsOf(replica.ServePredict(probe)))
	for i, b := range batches {
		ahead := batches[i+1 : min(i+1+tr.Lookahead(), len(batches))]
		losses = append(losses, tr.StepLookahead(b, ahead))
		refs = append(refs, bitsOf(replica.ServePredict(probe)))
	}
	return refs, losses
}

// TestServedAnswersAreStepBoundaries is the serving oracle: all of a step's
// parameter writes sit in one write-locked bracket (model.ApplyUpdate) and a
// serve forward holds the read side throughout, so a request answered while
// the trainer runs beside it sees the parameters of exactly one step
// boundary — never step k's embedding rows under step k+1's dense weights —
// and a player never sees the boundaries go backwards. Training itself must
// not notice the traffic. Every executor path that moves parameters is a
// cell; the unix cell puts a real socket push inside the bracket.
func TestServedAnswersAreStepBoundaries(t *testing.T) {
	cfg := tinyCfg()
	const seed, batch, steps, players, lr = 33, 48, 12, 2, 0.1
	batches := data.NewGenerator(cfg).NextBatches(steps, batch)
	probe := serve.BuildCorpus(cfg, 1, 1, 16).Requests[0].Batch

	newSvc := func(t *testing.T, q shard.QuantMode, hot shard.HotClassifier, network string) *shard.Service {
		svc := shard.New(shard.Config{
			Nodes: 4, CacheBytes: 32 << 10, RowBytes: int64(cfg.EmbedDim) * 4, Quant: q,
		}, hot)
		if network != "" {
			fab, err := shard.StartLocalFabric(4, network, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fab.Close() })
			svc.SetTransport(fab.Transport)
		}
		t.Cleanup(func() {
			if err := svc.Close(); err != nil {
				t.Errorf("closing the service: %v", err)
			}
			if err := svc.FabricErr(); err != nil {
				t.Errorf("fabric error voids the cell: %v", err)
			}
		})
		return svc
	}
	hotline := func(tr *HotlineTrainer) Trainer {
		tr.LearnSamples = 2 * batch // classify for real from the third step on
		return tr
	}
	shardedModel := func(t *testing.T) *model.Model {
		m := model.New(cfg, seed)
		m.ShardEmbeddings(newSvc(t, shard.QuantOff, nil, ""))
		return m
	}
	cells := []struct {
		name  string
		build func(t *testing.T) Trainer
	}{
		{"hotline-sgd/table", func(t *testing.T) Trainer {
			return hotline(NewHotline(model.New(cfg, seed), lr))
		}},
		{"hotline-sgd/inproc4", func(t *testing.T) Trainer {
			return hotline(NewHotlineSharded(model.New(cfg, seed), lr, newSvc(t, shard.QuantOff, nil, "")))
		}},
		{"hotline-sgd/inproc4-mixed", func(t *testing.T) Trainer {
			return hotline(NewHotlineSharded(model.New(cfg, seed), lr, newSvc(t, shard.QuantMixed, modHot{}, "")))
		}},
		{"hotline-sgd/unix4", func(t *testing.T) Trainer {
			return hotline(NewHotlineSharded(model.New(cfg, seed), lr, newSvc(t, shard.QuantOff, nil, "unix")))
		}},
		{"hotline-adagrad/inproc4", func(t *testing.T) Trainer {
			return hotline(NewHotlineSharded(model.New(cfg, seed).SetOptimizer(model.NewAdagrad), lr, newSvc(t, shard.QuantOff, nil, "")))
		}},
		{"baseline-sgd/inproc4", func(t *testing.T) Trainer { return NewBaseline(shardedModel(t), lr) }},
		{"baseline-adagrad/inproc4", func(t *testing.T) Trainer { return NewBaseline(shardedModel(t).SetOptimizer(model.NewAdagrad), lr) }},
	}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			ref := c.build(t)
			refs, refLosses := boundaryAnswers(ref, batches, probe)
			if h, ok := ref.(*HotlineTrainer); ok {
				if f := h.PopularFraction(); f == 0 || f == 1 {
					t.Fatalf("popular fraction %g: the cell never ran both µ-batch passes", f)
				}
			}

			tr := c.build(t)
			srv := serve.NewServer(tr.Model(), players)
			var answered atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for p := 0; p < players; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					k := 0 // the boundary this player's last answer was taken at
					for {
						select {
						case <-stop:
							return
						default:
						}
						got := bitsOf(srv.Predict(probe))
						for k < len(refs) && !slices.Equal(got, refs[k]) {
							k++
						}
						if k == len(refs) {
							t.Errorf("player %d: an answer equals no step boundary at or after the one it last saw", p)
							return
						}
						answered.Add(1)
					}
				}()
			}
			losses := make([]float64, steps)
			within(t, "the mixed run", func() {
				for i, b := range batches {
					ahead := batches[i+1 : min(i+1+tr.Lookahead(), steps)]
					srv.Train(func() { losses[i] = tr.StepLookahead(b, ahead) })
					// Let the players answer at this boundary too (they keep
					// predicting through the next step's passes): an event,
					// not a sleep.
					for seen := answered.Load(); answered.Load() < seen+players && !t.Failed(); {
						runtime.Gosched()
					}
				}
			})
			close(stop)
			wg.Wait()

			for i := range refLosses {
				if losses[i] != refLosses[i] {
					t.Fatalf("step %d: loss %g beside requests, %g alone", i, losses[i], refLosses[i])
				}
			}
			if d := model.MaxStateDiff(ref.Model(), tr.Model()); d != 0 {
				t.Fatalf("serving perturbed training state: max diff %g", d)
			}
			if got := bitsOf(srv.Predict(probe)); !slices.Equal(got, refs[steps]) {
				t.Fatal("the answer after the last step is not the last boundary's")
			}
		})
	}
}

// gate parks the next call that passes it while armed: the call reports on
// entered and waits for open.
type gate struct {
	armed   atomic.Bool
	entered chan struct{}
	open    chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), open: make(chan struct{})}
}

func (g *gate) pass() {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.open
	}
}

// gatedBag is a Table whose training and serving lookups each pass a gate,
// shared with its shadows, so a test can hold a training pass or a serve
// replica in the middle of its forward.
type gatedBag struct {
	*embedding.Table
	train, serve *gate
}

func (b *gatedBag) Forward(indices [][]int32) *tensor.Matrix {
	b.train.pass()
	return b.Table.Forward(indices)
}

func (b *gatedBag) ServeForward(indices [][]int32) *tensor.Matrix {
	b.serve.pass()
	return b.Table.ServeForward(indices)
}

func (b *gatedBag) ShadowBag() embedding.Bag {
	return &gatedBag{Table: b.Table.Shadow(), train: b.train, serve: b.serve}
}

// TestPredictRunsBesideAPassAndNotBesideTheUpdate pins the locking protocol
// itself, on events: (a) a request is answered while the trainer sits in the
// middle of its forward pass, from the parameters before that step; (b) a
// step does not apply its update while a request is in the middle of its
// forward, and that request — which read the bottom MLP before it was parked
// and reads embedding rows and the top MLP after — sees one boundary.
func TestPredictRunsBesideAPassAndNotBesideTheUpdate(t *testing.T) {
	cfg := tinyCfg()
	const seed, batch, lr = 35, 48, 0.1
	batches := data.NewGenerator(cfg).NextBatches(2, batch)
	probe := serve.BuildCorpus(cfg, 1, 1, 16).Requests[0].Batch
	refs, _ := boundaryAnswers(NewHotline(model.New(cfg, seed), lr), batches, probe)

	m := model.New(cfg, seed)
	trainGate, serveGate := newGate(), newGate()
	m.Tables[0] = &gatedBag{Table: m.Tables[0].(*embedding.Table), train: trainGate, serve: serveGate}
	tr := NewHotline(m, lr)
	srv := serve.NewServer(m, 1)
	step := func(i int) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Train(func() { tr.Step(batches[i]) })
		}()
		return done
	}
	predict := func() []uint32 {
		var got []uint32
		within(t, "a request", func() { got = bitsOf(srv.Predict(probe)) })
		return got
	}

	// (a) The trainer is parked inside its forward, inside Server.Train.
	trainGate.armed.Store(true)
	stepDone := step(0)
	within(t, "the step's forward", func() { <-trainGate.entered })
	if got := predict(); !slices.Equal(got, refs[0]) {
		t.Fatal("(a) the answer beside the forward pass is not the boundary before the step")
	}
	trainGate.open <- struct{}{}
	within(t, "the parked step", func() { <-stepDone })
	if got := predict(); !slices.Equal(got, refs[1]) {
		t.Fatal("(a) the answer after the step is not the boundary after it")
	}

	// (b) A request is parked inside its forward, holding its replica.
	serveGate.armed.Store(true)
	var parked []uint32
	requestDone := make(chan struct{})
	go func() {
		defer close(requestDone)
		parked = bitsOf(srv.Predict(probe))
	}()
	within(t, "the request's forward", func() { <-serveGate.entered })
	stepDone = step(1)
	// The step runs its passes and stops at the update. Give it time to get
	// there: on a box too slow for that the check below is vacuous, never
	// wrong.
	select {
	case <-stepDone:
		t.Fatal("(b) the step applied its update beside a request in the middle of its forward")
	case <-time.After(200 * time.Millisecond):
	}
	serveGate.open <- struct{}{}
	within(t, "the step behind the parked request", func() { <-stepDone })
	within(t, "the parked request", func() { <-requestDone })
	if !slices.Equal(parked, refs[1]) {
		t.Fatal("(b) the parked request mixed two boundaries: it must see the parameters before the step it held up")
	}
	if got := predict(); !slices.Equal(got, refs[2]) {
		t.Fatal("(b) the answer after the step is not the boundary after it")
	}
}
