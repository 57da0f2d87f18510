package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hotline/internal/data"
)

// spinBefore is how long before a request's due time an open-loop player
// stops sleeping and spins. A sleeping player woke 0.3 to 0.8 ms late (median,
// by run) on the shared box, which went straight into every latency; the
// margin absorbs that, and a request that is late all the same still counts
// from its due time.
const spinBefore = 1500 * time.Microsecond

// loadRun is one slice of a serve phase, one entry per request.
type loadRun struct {
	n         int
	wall      time.Duration
	bracket   bracket
	callUS    []float64 // Server.Predict call time
	latencyMS []float64 // open loop: completion minus due time
	lateMS    []float64 // open loop: how late the player started the request
	bad       []bool    // the request panicked or returned a malformed answer
	failed    int
}

// predict scores one request and reports whether the answer is well formed:
// one finite probability in [0, 1] per sample. A panic is a failed request.
func (in *instance) predict(probs *[]float32, b *data.Batch) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	*probs = in.srv.PredictInto(*probs, b)
	if len(*probs) != b.Size() {
		return false
	}
	for _, p := range *probs {
		if math.IsNaN(float64(p)) || p < 0 || p > 1 {
			return false
		}
	}
	return true
}

// play runs n requests, starting at corpus position first (wrapping), on
// `players` goroutines that pull request slots from a shared cursor. due,
// when non-nil, gives each slot's scheduled send time (open loop); nil sends
// as soon as a player is free (closed loop).
func play(in *instance, players, first, n int, due func(i int) time.Time) loadRun {
	r := loadRun{
		n: n, callUS: make([]float64, n), bad: make([]bool, n),
		latencyMS: make([]float64, n), lateMS: make([]float64, n),
	}
	reqs := in.corpus.Requests
	var cursor, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var probs []float32
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				sent := time.Now()
				at := sent
				if due != nil {
					at = due(i)
					if d := at.Sub(sent) - spinBefore; d > 0 {
						time.Sleep(d)
					}
					for sent = time.Now(); sent.Before(at); sent = time.Now() {
					}
				}
				ok := in.predict(&probs, reqs[(first+i)%len(reqs)].Batch)
				done := time.Now()
				r.callUS[i] = float64(done.Sub(sent)) / 1e3
				r.latencyMS[i] = float64(done.Sub(at)) / 1e6
				r.lateMS[i] = float64(sent.Sub(at)) / 1e6
				if !ok {
					r.bad[i] = true
					failed.Add(1)
				}
				if in.tracer != nil {
					in.tracer.leaf(spanRequest, -1, int64(at.Sub(in.tracer.epoch)), int64(done.Sub(in.tracer.epoch)))
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.failed = int(failed.Load())
	return r
}

// closedLoop: each client sends its next request when the previous one
// returns, so the server sets the pace. Measures capacity.
func closedLoop(in *instance, clients, first, n int) loadRun {
	return play(in, clients, first, n, nil)
}

// openLoop: request i is due at start + i/rate whether or not earlier ones
// have finished, and its latency counts from that due time, so a stall
// shows as latency on every request queued behind it.
func openLoop(in *instance, players, first, n int, rate float64) loadRun {
	start := time.Now()
	interval := float64(time.Second) / rate
	return play(in, players, first, n, func(i int) time.Time {
		return start.Add(time.Duration(float64(i) * interval))
	})
}
