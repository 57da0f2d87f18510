package serve

import (
	"sync"
	"sync/atomic"

	"hotline/internal/data"
	"hotline/internal/model"
)

// Server serves click predictions from a model while a trainer keeps
// advancing the same weights.
//
// Replicas are weight-sharing shadows (model.NewShadow): the parameters
// live once, each replica owns private forward scratch, so replicas score
// requests concurrently — with each other and with the trainer's forward
// and backward passes, which only read parameters too. What orders serving
// against training is the model's own parameter lock, not anything in this
// package: a replica's forward holds its read side (model.ServePredictInto)
// and the trainer holds the write side for the update alone
// (model.ApplyUpdate, one bracket per step), so a request waits for at most
// one update and every answer is bit-equal to the read-path prediction at
// some step boundary. Serving cannot perturb training: replica lookups take
// the bags' ServeForward path, which never consumes a prefetch window,
// never arms backward state, never writes the shard service's device
// caches (a request reads what training cached; it admits and removes
// nothing), and books its traffic into the service's serve
// counters. Requests once warmed the shared caches; that changed accounting
// only, never values, and it is gone.
type Server struct {
	// trainMu admits one Train closure at a time.
	trainMu  sync.Mutex
	replicas chan *model.Model

	requests atomic.Int64
	samples  atomic.Int64
}

// NewServer builds a server with n predict replicas shadowing m (n <= 0
// defaults to 1). It only reads m, so several servers may share one model.
// The caller keeps training through its own executor on m; see Train.
func NewServer(m *model.Model, n int) *Server {
	if n <= 0 {
		n = 1
	}
	s := &Server{replicas: make(chan *model.Model, n)}
	for i := 0; i < n; i++ {
		s.replicas <- model.NewShadow(m)
	}
	return s
}

// Replicas returns the predict replica count.
func (s *Server) Replicas() int { return cap(s.replicas) }

// Predict returns click probabilities for one request batch.
func (s *Server) Predict(b *data.Batch) []float32 {
	return s.PredictInto(nil, b)
}

// PredictInto is Predict writing into dst (grown as needed), so a request
// player reusing one buffer allocates nothing in steady state. It blocks
// while every replica is busy, then for the trainer's update if one is
// being applied; both waits are real serving latency and the load harness
// measures them. The replica is taken before the parameter lock, so a
// trainer arriving at its update waits for at most Replicas() forwards
// already in flight, never for requests parked on the pool; and it goes
// back on every path, a request that panics (an out-of-range index does, by
// design) included.
func (s *Server) PredictInto(dst []float32, b *data.Batch) []float32 {
	rep := <-s.replicas
	defer func() { s.replicas <- rep }()
	dst = rep.ServePredictInto(dst, b)
	s.requests.Add(1)
	s.samples.Add(int64(b.Size()))
	return dst
}

// Train runs step, one trainer at a time. It does not keep requests out:
// they are answered beside the step's passes and wait only for its update.
// That is safe as long as step moves parameters only through a
// train.Trainer or model.Model.TrainStep, which apply their update inside
// the model's bracket (model.ApplyUpdate); a closure that writes weights by
// hand is not ordered against predicts.
func (s *Server) Train(step func()) {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	step()
}

// Served returns how many requests and samples have been predicted.
func (s *Server) Served() (requests, samples int64) {
	return s.requests.Load(), s.samples.Load()
}
