package train

import (
	"sync"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/serve"
	"hotline/internal/shard"
)

// TestMixedServeTrainingParity extends the parity family to the serving
// path: a Hotline run that also answers predict traffic — both overlapped
// (a player goroutine hammering the server throughout) and deliberately
// BETWEEN pipelined steps, while cross-iteration prefetch windows are open
// — must leave training state bit-identical to the train-only run. This is
// the end-to-end guarantee behind ServeForward's contract: no prefetch
// window consumed, no backward state armed, no parameter touched, no device
// cache written. The last is checked on the counts: at one worker (the
// counts of concurrent µ-batch passes depend on scheduling) the mixed run's
// training counters equal the train-only run's exactly, so no request turned
// a training miss into a hit or took the room of a row training admits.
func TestMixedServeTrainingParity(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := tinyCfg()
	const seed, batch, iters = 21, 48, 10

	run := func(mixed bool) (*model.Model, []float64, shard.Stats) {
		svc := shard.New(shard.Config{
			Nodes: 4, CacheBytes: 32 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		tr := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
		batches := data.NewGenerator(cfg).NextBatches(iters, batch)
		losses := make([]float64, iters)

		var srv *serve.Server
		var corpus *serve.Corpus
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if mixed {
			srv = serve.NewServer(tr.Model(), 2)
			corpus = serve.BuildCorpus(cfg, 2, 4, 16)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					srv.Predict(corpus.Requests[i%corpus.Len()].Batch)
				}
			}()
		}
		for i, b := range batches {
			ahead := batches[i+1 : min(i+2, iters)]
			if !mixed {
				losses[i] = tr.StepLookahead(b, ahead)
				continue
			}
			srv.Train(func() { losses[i] = tr.StepLookahead(b, ahead) })
			// One synchronous predict per iteration with the next window
			// already staged: it must not consume it.
			srv.Predict(corpus.Requests[i%corpus.Len()].Batch)
		}
		if mixed {
			close(stop)
			wg.Wait()
			if reqs, _ := srv.Served(); reqs < int64(iters) {
				t.Fatalf("server answered only %d requests", reqs)
			}
		}
		return tr.Model(), losses, svc.Snapshot().WithoutWall()
	}

	mTrain, lossTrain, countsTrain := run(false)
	mMixed, lossMixed, countsMixed := run(true)
	for i := range lossTrain {
		if lossTrain[i] != lossMixed[i] {
			t.Fatalf("iter %d: loss %g (train-only) vs %g (mixed)", i, lossTrain[i], lossMixed[i])
		}
	}
	if d := model.MaxStateDiff(mTrain, mMixed); d != 0 {
		t.Fatalf("mixed train+serve perturbed training state: max diff %g", d)
	}
	if countsMixed != countsTrain {
		t.Fatalf("serving moved the training counters:\n mixed %+v\n train %+v", countsMixed, countsTrain)
	}
}
