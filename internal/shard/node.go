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

	mu    sync.Mutex
	rows  map[uint64][]float32 // key(table,row) → authoritative payload
	conns map[net.Conn]struct{}

	closeOnce sync.Once
	closed    atomic.Bool
	wg        sync.WaitGroup

	// Stats, readable while serving.
	fetchFrames atomic.Int64 // fetch requests served
	pushFrames  atomic.Int64 // push requests applied
	rowsServed  atomic.Int64 // rows returned by fetches
	rowsStored  atomic.Int64 // rows written by pushes
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
		rows:  make(map[uint64][]float32),
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
	s.mu.Lock()
	held := len(s.rows)
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
			s.applyPush(&req)
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

// applyPush stores the pushed row payloads (copying out of the frame).
func (s *NodeServer) applyPush(req *wireMsg) {
	s.mu.Lock()
	for i, r := range req.rows {
		k := key(req.table, r)
		dst := s.rows[k]
		if cap(dst) < req.dim {
			dst = make([]float32, req.dim)
		} else {
			dst = dst[:req.dim]
		}
		copy(dst, req.vals[i*req.dim:(i+1)*req.dim])
		s.rows[k] = dst
	}
	s.mu.Unlock()
	s.pushFrames.Add(1)
	s.rowsStored.Add(int64(len(req.rows)))
}

// replyFetch answers a fetch with the requested rows, or an unknown-row
// error if any is absent from the store.
func (s *NodeServer) replyFetch(c net.Conn, out *[]byte, req, rep *wireMsg) bool {
	rep.op = opRows
	rep.table = req.table
	rep.dim = 0
	rep.rows = append(rep.rows[:0], req.rows...)
	rep.vals = rep.vals[:0]
	s.mu.Lock()
	for _, r := range req.rows {
		v, ok := s.rows[key(req.table, r)]
		if !ok {
			s.mu.Unlock()
			return s.reply(c, out, &wireMsg{op: opError, code: wireErrUnknownRow,
				text: fmt.Sprintf("table %d row %d of node %d", req.table, r, s.node)})
		}
		if rep.dim == 0 {
			rep.dim = len(v)
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
