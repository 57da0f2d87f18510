package serve

import (
	"fmt"

	"hotline/internal/data"
)

// Request is one inference request: a batch of candidate samples to score,
// tagged with the simulated drift day it was drawn from.
type Request struct {
	Day   int
	Batch *data.Batch
}

// Corpus is a pre-generated, deterministic request stream: perDay request
// batches for each of Days consecutive drift days, in day order. Playing it
// front to back walks the server through exactly the popularity churn the
// evolving-skew experiments train under — the popular head of each table
// drifts between days, so requests meet caches that training filled for an
// earlier day's head until training re-warms them.
type Corpus struct {
	Days     int
	Requests []Request
}

// BuildCorpus draws a corpus from the Zipf/drifting generator for cfg.
// Generation is deterministic in (cfg, days, perDay, batchSize): two
// corpora built from the same arguments are identical, so load runs are
// replayable.
func BuildCorpus(cfg data.Config, days, perDay, batchSize int) *Corpus {
	if days < 1 || perDay < 1 || batchSize < 1 {
		panic(fmt.Sprintf("serve: corpus wants days, perDay, batchSize >= 1 (got %d, %d, %d)",
			days, perDay, batchSize))
	}
	g := data.NewGenerator(cfg)
	c := &Corpus{Days: days, Requests: make([]Request, 0, days*perDay)}
	for d := 0; d < days; d++ {
		g.SetDay(d)
		for r := 0; r < perDay; r++ {
			c.Requests = append(c.Requests, Request{Day: d, Batch: g.NextBatch(batchSize)})
		}
	}
	return c
}

// Len returns the request count.
func (c *Corpus) Len() int { return len(c.Requests) }

// Samples returns the total sample count across requests.
func (c *Corpus) Samples() int64 {
	var n int64
	for i := range c.Requests {
		n += int64(c.Requests[i].Batch.Size())
	}
	return n
}
