package main

import (
	"net"
	"sync/atomic"

	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// The decorators below are the benchmark's only instrumentation: they sit at
// seams the program already has (the Bag interface, shard.Transport,
// FabricConfig.WrapConn), forward every call unchanged and record a span
// around it. A traced run must produce the same losses as an untraced one.

// tracedBag times the embedding-bag calls of one table. It forwards the
// optional methods the model discovers by type assertion (Prefetch,
// AbortPrefetch, ServeForward, ResetStepScratch) and wraps shadows, so the
// executor's shadow model and the serve replicas are timed as well.
type tracedBag struct {
	embedding.Bag
	tr    *tracer
	table int
}

// prefetcher, serveForwarder and scratchResetter mirror the optional
// interfaces internal/model asserts on its bags.
type (
	prefetcher interface {
		Prefetch(indices [][]int32)
		AbortPrefetch()
	}
	serveForwarder interface {
		ServeForward([][]int32) *tensor.Matrix
	}
	scratchResetter interface{ ResetStepScratch() }
)

// traceBags wraps every table of m. Call it after the tables are sharded and
// before the first step or shadow is made.
func traceBags(m *model.Model, tr *tracer) {
	for t, b := range m.Tables {
		m.Tables[t] = &tracedBag{Bag: b, tr: tr, table: t}
	}
}

func (b *tracedBag) Forward(indices [][]int32) *tensor.Matrix {
	id := b.tr.begin(spanForward, b.table)
	defer b.tr.end(id)
	return b.Bag.Forward(indices)
}

func (b *tracedBag) Backward(gradOut *tensor.Matrix) embedding.SparseGrad {
	id := b.tr.begin(spanBackward, b.table)
	defer b.tr.end(id)
	return b.Bag.Backward(gradOut)
}

func (b *tracedBag) BackwardIndices(indices [][]int32, gradOut *tensor.Matrix) embedding.SparseGrad {
	id := b.tr.begin(spanBackward, b.table)
	defer b.tr.end(id)
	return b.Bag.BackwardIndices(indices, gradOut)
}

func (b *tracedBag) ApplySparseSGD(sg embedding.SparseGrad, lr float32) {
	id := b.tr.begin(spanSparseUpdate, b.table)
	defer b.tr.end(id)
	b.Bag.ApplySparseSGD(sg, lr)
}

func (b *tracedBag) ShadowBag() embedding.Bag {
	return &tracedBag{Bag: b.Bag.ShadowBag(), tr: b.tr, table: b.table}
}

func (b *tracedBag) Prefetch(indices [][]int32) {
	if p, ok := b.Bag.(prefetcher); ok {
		id := b.tr.begin(spanPrefetch, b.table)
		defer b.tr.end(id)
		p.Prefetch(indices)
	}
}

func (b *tracedBag) AbortPrefetch() {
	if p, ok := b.Bag.(prefetcher); ok {
		p.AbortPrefetch()
	}
}

// ServeForward runs on the request players' goroutines, which have no span
// stack; requests are timed whole by the player (serve.request).
func (b *tracedBag) ServeForward(indices [][]int32) *tensor.Matrix {
	if s, ok := b.Bag.(serveForwarder); ok {
		return s.ServeForward(indices)
	}
	return b.Bag.Forward(indices)
}

func (b *tracedBag) ResetStepScratch() {
	if r, ok := b.Bag.(scratchResetter); ok {
		r.ResetStepScratch()
	}
}

// tracedTransport times every fabric operation. Fetches run on the gather
// drainers as well as inline, so these spans overlap each other.
type tracedTransport struct {
	shard.Transport
	tr *tracer
}

func (t *tracedTransport) Fetch(table, owner int, rows []int32, st *shard.Staging, local shard.FetchFunc) error {
	id := t.tr.beginOp(spanFetch, table, owner)
	defer t.tr.endOp(id)
	return t.Transport.Fetch(table, owner, rows, st, local)
}

func (t *tracedTransport) Push(table, owner int, rows []int32, src shard.RowAt) error {
	id := t.tr.beginOp(spanPush, table, owner)
	defer t.tr.endOp(id)
	return t.Transport.Push(table, owner, rows, src)
}

// wireCounters totals what crossed the coordinator's sockets.
type wireCounters struct {
	txBytes, rxBytes atomic.Int64
}

// tracedConn times and counts the coordinator side of one peer connection.
// A Read's duration is mostly the wait for the node's reply.
type tracedConn struct {
	net.Conn
	tr    *tracer
	wire  *wireCounters
	owner int
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.leaf(spanConnWrite, c.owner, start, c.tr.now())
	c.wire.txBytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Read(p)
	c.tr.leaf(spanConnRead, c.owner, start, c.tr.now())
	c.wire.rxBytes.Add(int64(n))
	return n, err
}
