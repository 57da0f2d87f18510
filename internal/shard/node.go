//hotline:typed-errors

package shard

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// NodeServer is one shard node of the socket fabric: the authoritative store
// for the embedding rows its node owns, served over the length-prefixed wire
// protocol. `cmd/hotline-node` wraps it as a standalone OS process; tests
// and the in-process fallback run it as a goroutine behind a real socket —
// the bytes cross the kernel either way.
//
// The server is a strict responder: every frame the coordinator sends gets
// exactly one reply on the same connection (hello→ack, push→ack,
// fetch→rows, anything malformed→error), in arrival order, so the client
// can keep several requests outstanding on a connection and match the
// replies by counting, without tagging.
type NodeServer struct {
	node int
	ln   net.Listener
	io   time.Duration // per-frame IO deadline; 0 = none

	mu     sync.Mutex
	tables []nodeTable // tables[t]: the rows of table t this node holds
	conns  map[net.Conn]struct{}

	closeOnce sync.Once
	closed    atomic.Bool
	wg        sync.WaitGroup

	// Stats, readable while serving.
	fetchFrames atomic.Int64 // fetch requests served
	pushFrames  atomic.Int64 // push requests applied
	rowsServed  atomic.Int64 // rows returned by fetches
	rowsStored  atomic.Int64 // rows written by pushes
}

// The bounds a push's ids must stay under. A node's index spans the highest
// row pushed, so unlike a payload it grows with an id, not with the bytes
// that arrived: these keep one lying frame from allocating gigabytes. A table
// of maxNodeRows rows is 16 GB of fp32 payload at dim 64, so the index stays
// a small share of any real one.
const (
	maxNodeTables = 1 << 16
	maxNodeRows   = 1 << 26
)

// nodeTable is one table's share of a node's store: the rows the node holds,
// packed in the order they first arrived, and an index from row to payload.
type nodeTable struct {
	dim  int       // fixed by the table's first push; 0 until then
	slot []int32   // slot[row] = payload index + 1, 0 = not held; spans the highest row pushed
	vals []float32 // the held rows, dim values each, in payload-index order
}

// row returns the held payload of row r, or nil when the node does not hold
// it (a negative r included).
//
//hotline:hotpath
func (t *nodeTable) row(r int32) []float32 {
	if uint32(r) >= uint32(len(t.slot)) {
		return nil
	}
	p := int(t.slot[r]) - 1
	if p < 0 {
		return nil
	}
	return t.vals[p*t.dim : (p+1)*t.dim]
}

// hold gives every row of rows not held yet a payload slot, growing the
// index to span them and the slab to fit them; a frame that only rewrites
// held rows, as every steady-state push does, allocates nothing. The slab
// grows to exactly what a large frame needs, so the initial sync's few big
// frames leave no spare capacity, and by at least a quarter otherwise.
func (t *nodeTable) hold(rows []int32) {
	n := len(t.vals) / t.dim
	for _, r := range rows {
		if int(r) >= len(t.slot) {
			t.slot = append(t.slot, make([]int32, int(r)+1-len(t.slot))...)
		}
		if t.slot[r] == 0 {
			n++
			t.slot[r] = int32(n)
		}
	}
	need := n * t.dim
	if need <= cap(t.vals) {
		t.vals = t.vals[:need]
		return
	}
	grown := make([]float32, need, max(need, cap(t.vals)+cap(t.vals)/4))
	copy(grown, t.vals)
	t.vals = grown
}

// NodeStats is a snapshot of one node process's serving counters.
type NodeStats struct {
	Node        int
	FetchFrames int64
	PushFrames  int64
	RowsServed  int64
	RowsStored  int64
	RowsHeld    int
}

// ServeNode listens on network/addr ("unix" or "tcp"; pass ":0"-style TCP
// addresses to bind an ephemeral port) and serves the node's row store until
// Close. The accept loop runs in the background; Addr reports the bound
// address.
//
// ioTimeout is a per-frame IO deadline: once a request's length prefix has
// arrived, reading its payload and writing the reply must each finish within
// it, so a coordinator that stalls mid-frame cannot pin a handler goroutine
// (and its conn) forever. Waiting for the next request is never bounded —
// coordinator connections idle between training windows by design. Zero
// disables the deadline; negative is a config error.
func ServeNode(node int, network, addr string, ioTimeout time.Duration) (*NodeServer, error) {
	if ioTimeout < 0 {
		return nil, fmt.Errorf("%w: node %d negative io timeout %s", ErrFabricConfig, node, ioTimeout)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("shard: node %d listen %s %s: %w", node, network, addr, err)
	}
	s := &NodeServer{
		node: node, ln: ln, io: ioTimeout,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address (the ephemeral port when the
// caller listened on ":0").
func (s *NodeServer) Addr() string { return s.ln.Addr().String() }

// Node returns the owner index this server holds rows for.
func (s *NodeServer) Node() int { return s.node }

// Stats snapshots the serving counters.
func (s *NodeServer) Stats() NodeStats {
	held := 0
	s.mu.Lock()
	for _, t := range s.tables {
		if t.dim > 0 {
			held += len(t.vals) / t.dim
		}
	}
	s.mu.Unlock()
	return NodeStats{
		Node:        s.node,
		FetchFrames: s.fetchFrames.Load(),
		PushFrames:  s.pushFrames.Load(),
		RowsServed:  s.rowsServed.Load(),
		RowsStored:  s.rowsStored.Load(),
		RowsHeld:    held,
	}
}

// Close stops the accept loop, closes every live connection and waits for
// the connection handlers to retire. Idempotent and safe concurrently.
func (s *NodeServer) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.ln.Close()
		s.mu.Lock()
		//hotline:allow detorder teardown closes every conn; order is unobservable
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *NodeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn handles one coordinator connection: frame in, frame out.
func (s *NodeServer) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	var in []byte   // read scratch, grown to the largest frame seen
	var out []byte  // write scratch
	var req wireMsg // decoded request, slices reused
	var rep wireMsg
	for {
		payload, err := s.readRequest(c, in)
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrTruncatedFrame) {
				// Protocol violation: tell the peer once, then drop the
				// conn — framing is lost, nothing later can be trusted.
				s.reply(c, &out, &wireMsg{op: opError, code: wireErrBadFrame, text: err.Error()})
			}
			return
		}
		in = payload[:cap(payload)]
		if err := decodeMsg(payload, &req); err != nil {
			s.reply(c, &out, &wireMsg{op: opError, code: wireErrBadFrame, text: err.Error()})
			return
		}
		switch req.op {
		case opHello:
			if req.node != s.node {
				s.reply(c, &out, &wireMsg{op: opError, code: wireErrInternal,
					text: fmt.Sprintf("hello for node %d, this is node %d", req.node, s.node)})
				return
			}
			if !s.reply(c, &out, &wireMsg{op: opAck}) {
				return
			}
		case opPush:
			if err := s.applyPush(&req); err != nil {
				// A refused push: the coordinator reads the error in the
				// ack's place and gives the peer up, so the conn goes too.
				s.reply(c, &out, &wireMsg{op: opError, code: wireErrBadFrame,
					text: fmt.Sprintf("node %d: %v", s.node, err)})
				return
			}
			if !s.reply(c, &out, &wireMsg{op: opAck}) {
				return
			}
		case opFetch:
			if !s.replyFetch(c, &out, &req, &rep) {
				return
			}
		default:
			s.reply(c, &out, &wireMsg{op: opError, code: wireErrBadFrame,
				text: fmt.Sprintf("unexpected opcode %d", req.op)})
			return
		}
	}
}

// applyPush stores the pushed row payloads (copying out of the frame). A
// table's dim is fixed by its first push; a push at another dim, or with an
// id past the store's bounds, is refused whole and stores nothing.
func (s *NodeServer) applyPush(req *wireMsg) error {
	if len(req.rows) > 0 {
		if err := s.store(req); err != nil {
			return err
		}
	}
	s.pushFrames.Add(1)
	s.rowsStored.Add(int64(len(req.rows)))
	return nil
}

// store writes a non-empty push into its table's record.
func (s *NodeServer) store(req *wireMsg) error {
	switch {
	case req.table >= maxNodeTables:
		return fmt.Errorf("%w: table %d is past the store's %d tables", ErrBadFrame, req.table, maxNodeTables)
	case req.dim < 1:
		return fmt.Errorf("%w: table %d pushed at dim %d", ErrBadFrame, req.table, req.dim)
	}
	for _, r := range req.rows {
		if uint32(r) >= maxNodeRows {
			return fmt.Errorf("%w: table %d row %d is outside the store's [0, %d)", ErrBadFrame, req.table, r, maxNodeRows)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.table >= len(s.tables) {
		s.tables = append(s.tables, make([]nodeTable, req.table+1-len(s.tables))...)
	}
	t := &s.tables[req.table]
	if t.dim == 0 {
		t.dim = req.dim
	} else if req.dim != t.dim {
		return fmt.Errorf("%w: table %d pushed at dim %d, held at dim %d", ErrBadFrame, req.table, req.dim, t.dim)
	}
	t.hold(req.rows)
	for i, r := range req.rows {
		copy(t.row(r), req.vals[i*t.dim:(i+1)*t.dim])
	}
	return nil
}

// replyFetch answers a fetch with the requested rows, or an unknown-row
// error if any is absent from the store.
func (s *NodeServer) replyFetch(c net.Conn, out *[]byte, req, rep *wireMsg) bool {
	rep.op = opRows
	rep.table = req.table
	rep.rows = append(rep.rows[:0], req.rows...)
	rep.vals = rep.vals[:0]
	s.mu.Lock()
	var t nodeTable // an unpushed table holds no row
	if req.table < len(s.tables) {
		t = s.tables[req.table]
	}
	rep.dim = t.dim
	for _, r := range req.rows {
		v := t.row(r)
		if v == nil {
			s.mu.Unlock()
			return s.reply(c, out, &wireMsg{op: opError, code: wireErrUnknownRow,
				text: fmt.Sprintf("table %d row %d of node %d", req.table, r, s.node)})
		}
		rep.vals = append(rep.vals, v...)
	}
	s.mu.Unlock()
	s.fetchFrames.Add(1)
	s.rowsServed.Add(int64(len(req.rows)))
	return s.reply(c, out, rep)
}

// readRequest reads one request frame. The wait for the length prefix is
// unbounded (idle connections are healthy); once a frame has started, its
// payload must arrive within the IO deadline.
func (s *NodeServer) readRequest(c net.Conn, buf []byte) ([]byte, error) {
	n, buf, err := readFrameLen(c, buf)
	if err != nil {
		return nil, err
	}
	if s.io > 0 {
		if err := c.SetReadDeadline(time.Now().Add(s.io)); err != nil { //hotline:allow detorder deadline arming; timeouts are a fault policy, not math
			return nil, fmt.Errorf("%w: node %d arm read deadline: %v", ErrPeerDead, s.node, err)
		}
		defer c.SetReadDeadline(time.Time{})
	}
	return readFramePayload(c, n, buf)
}

// reply frames and writes one response; false means the conn is unusable.
// The write runs under the IO deadline, so a peer that stops draining its
// socket cannot wedge the handler.
func (s *NodeServer) reply(c net.Conn, out *[]byte, m *wireMsg) bool {
	buf := append((*out)[:0], 0, 0, 0, 0) // reserve the length prefix
	buf = appendMsg(buf, m)
	*out = buf
	if s.io > 0 {
		if c.SetWriteDeadline(time.Now().Add(s.io)) != nil { //hotline:allow detorder deadline arming; timeouts are a fault policy, not math
			return false
		}
		defer c.SetWriteDeadline(time.Time{})
	}
	return writeFrame(c, buf) == nil
}
