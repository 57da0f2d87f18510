//hotline:typed-errors

package shard

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FabricTimeouts splits the fabric's time budget into the three places a
// socket fabric can stall, each with a documented non-zero default (a zero
// field selects its default, so the zero value is a fully bounded fabric —
// no knob setting can make a dial or an exchange wait forever).
type FabricTimeouts struct {
	// Dial bounds every connection attempt (initial fabric dial and every
	// re-dial of a dead peer). Default DefaultDialTimeout.
	Dial time.Duration
	// IO bounds each frame written to or read from a live connection. The
	// deadline is armed afresh per frame — per request written, per reply
	// and per owed ack read — so a peer that turns slow mid-frame cannot
	// ride a stale deadline from the frame before. Default DefaultIOTimeout.
	IO time.Duration
	// Retry bounds the total wall clock a ResilientTransport spends
	// retrying and re-dialing one dead peer before declaring it
	// unrecoverable (the point where shard adoption takes over). Default
	// DefaultRetryTimeout.
	Retry time.Duration
}

// Fabric timeout defaults. A zero FabricTimeouts field selects its default.
const (
	DefaultDialTimeout  = 5 * time.Second
	DefaultIOTimeout    = 10 * time.Second
	DefaultRetryTimeout = 30 * time.Second
)

// Validate rejects negative budgets (zero means "use the default").
func (t FabricTimeouts) Validate() error {
	if t.Dial < 0 || t.IO < 0 || t.Retry < 0 {
		return fmt.Errorf("%w: negative timeout in %+v", ErrFabricConfig, t)
	}
	return nil
}

// WithDefaults returns the timeouts with every zero field replaced by its
// documented default.
func (t FabricTimeouts) WithDefaults() FabricTimeouts {
	if t.Dial == 0 {
		t.Dial = DefaultDialTimeout
	}
	if t.IO == 0 {
		t.IO = DefaultIOTimeout
	}
	if t.Retry == 0 {
		t.Retry = DefaultRetryTimeout
	}
	return t
}

// FabricConfig describes how the coordinator reaches its shard node
// processes.
type FabricConfig struct {
	// Network is "unix" or "tcp".
	Network string
	// Addrs[owner] is the listen address of owner's node process.
	Addrs []string
	// Timeouts bounds dialing, per-operation I/O and the re-dial budget;
	// zero fields select their documented defaults (see FabricTimeouts).
	Timeouts FabricTimeouts
	// WrapConn, when set, wraps each freshly dialed peer connection — the
	// fault-injection seam the conformance suite uses to drop, corrupt,
	// truncate or delay frames (and the benchmark to trace them). Re-dials
	// are wrapped the same way. Production fabrics leave it nil.
	WrapConn func(owner int, c net.Conn) net.Conn
}

// Pipelining bounds of a peer's ordered stream. Constants, not options:
// each follows from the protocol's frame sizes.
const (
	// maxOwedAcks bounds the push acks a peer may leave unread. An ack is a
	// 5-byte frame, so this many fit any socket buffer and the node's reply
	// write never blocks on a coordinator that is not reading yet.
	maxOwedAcks = 64
	// maxFetchAhead and maxFetchAheadBytes bound the chunk requests a Fetch
	// writes before it reads their replies. The node may sit blocked in the
	// write of a MaxFrame reply the coordinator has not begun to read, so
	// the requests written behind it must fit the kernel's socket buffers
	// with nobody draining them; 64 KB is under the default buffer of both
	// socket families. Requests are row ids only — 12 KB per chunk at dim
	// 64 — but a chunk at dim 1 asks for over 100k rows (see fetchAhead).
	maxFetchAhead      = 8
	maxFetchAheadBytes = 64 << 10
	// sendBufferBytes is the kernel send buffer asked for at dial: room for
	// two full push frames, so a step's scatter to one owner lands in the
	// kernel while the node is still applying the previous frame instead of
	// blocking the trainer in write.
	sendBufferBytes = 2 * MaxFrame
	// closeGrace is the patience of Close: how long it lets operations
	// already in flight finish before it closes their conns under them, and
	// how long it waits for each ack it reaps itself. A healthy exchange
	// takes microseconds and a node applies a full frame in a few
	// milliseconds; a hung peer costs Close this much, not an IO timeout.
	closeGrace = 100 * time.Millisecond
)

// socketPeer is the coordinator's connection to one node process: a
// pipelined ordered stream. The node answers every frame with exactly one
// reply, in arrival order, so replies need no request ids — the peer counts
// what it is owed. A push writes its frame and leaves the ack unread (owed);
// the next operation that reads reaps the owed acks, oldest first, before
// its own reply. Operations are mutex-serialised: the gather drainers, the
// training thread's scatter pushes and the serve path may all address the
// same owner concurrently, and interleaving one operation's frames with
// another's would corrupt the stream. A failed send, reply or ack marks the
// peer dead (sticky): later operations fail fast with ErrPeerDead instead of
// hanging on a broken conn. A ResilientTransport can revive a dead peer
// through redial, which swaps in a fresh connection, clears the sticky error
// and forgets the acks the old stream owed.
type socketPeer struct {
	mu   sync.Mutex
	addr string  // current dial address (re-dials may move it, e.g. a restart on a new port)
	err  error   // sticky; nil while healthy
	owed int     // pushes written whose acks are still unread; ≤ maxOwedAcks
	out  []byte  // encode scratch
	in   []byte  // reply read scratch
	rep  wireMsg // decoded reply, slices reused

	// connMu guards the conn field, never I/O on it. Operations read conn
	// under mu alone (only a dial, holding both locks, replaces it); Close
	// takes connMu without mu, so it can close the conn under an operation
	// that holds mu across a blocked read or write.
	connMu sync.Mutex
	conn   net.Conn
}

// SocketTransport is the multi-process fabric: per-owner gather fetch lists
// and pre-reduced scatter pushes travel as wire-protocol frames over one
// socket per node process. Safe for concurrent use; operations against
// distinct owners proceed in parallel.
type SocketTransport struct {
	cfg      FabricConfig
	peers    []*socketPeer
	dead     atomic.Bool // set by Close; new operations fail with ErrClosed
	closed   sync.Once
	closeErr error
}

// DialFabric connects to every node process in cfg.Addrs and verifies each
// with a hello exchange, so a mis-wired fabric fails at dial time, not mid-
// training. The caller owns the returned transport and must Close it.
func DialFabric(cfg FabricConfig) (*SocketTransport, error) {
	if err := cfg.Timeouts.Validate(); err != nil {
		return nil, err
	}
	cfg.Timeouts = cfg.Timeouts.WithDefaults()
	t := &SocketTransport{cfg: cfg, peers: make([]*socketPeer, len(cfg.Addrs))}
	for o, addr := range cfg.Addrs {
		t.peers[o] = &socketPeer{addr: addr}
		if err := t.dialPeerLocked(o, t.peers[o]); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// dialPeerLocked dials (or re-dials) one peer at its current address and
// verifies it with a hello exchange. The caller must guarantee no concurrent
// operation is using the peer (fresh transport, or redialPeer holding the
// resilient layer's write lock).
func (t *SocketTransport) dialPeerLocked(owner int, p *socketPeer) error {
	c, err := net.DialTimeout(t.cfg.Network, p.addr, t.cfg.Timeouts.Dial)
	if err != nil {
		return fmt.Errorf("%w: dial node %d (%s %s): %w", ErrPeerDead, owner, t.cfg.Network, p.addr, err)
	}
	// Before WrapConn, which hides the method. Best effort: a kernel that
	// grants less only makes a large scatter block in write sooner.
	if sb, ok := c.(interface{ SetWriteBuffer(int) error }); ok {
		_ = sb.SetWriteBuffer(sendBufferBytes)
	}
	if t.cfg.WrapConn != nil {
		c = t.cfg.WrapConn(owner, c)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.connMu.Lock()
	if t.dead.Load() {
		// Close ran while this dial was under way and will not see c.
		p.connMu.Unlock()
		c.Close()
		return ErrClosed
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = c
	p.connMu.Unlock()
	p.err = nil
	// A fresh stream owes nothing: the acks of pushes written to the old
	// conn died with it, and waiting for them here would time the hello out.
	// What those pushes carried is restored by the caller's resync.
	p.owed = 0
	if err := t.exchange(owner, p, &wireMsg{op: opHello, node: owner}, opAck); err != nil {
		return fmt.Errorf("hello to node %d (%s %s): %w", owner, t.cfg.Network, p.addr, err)
	}
	return nil
}

// redialPeer replaces a (typically dead) peer's connection with a freshly
// dialed, hello-verified one and clears the sticky error — the revive
// primitive of the ResilientTransport. The caller must exclude concurrent
// operations against this peer for the duration.
func (t *SocketTransport) redialPeer(owner int) error {
	if t.dead.Load() {
		return ErrClosed
	}
	return t.dialPeerLocked(owner, t.peers[owner])
}

// setPeerAddr moves a peer's dial address (a node restarted on a new port).
// Takes effect on the next redialPeer.
func (t *SocketTransport) setPeerAddr(owner int, addr string) {
	p := t.peers[owner]
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
}

// peerAddr returns a peer's current dial address.
func (t *SocketTransport) peerAddr(owner int) string {
	p := t.peers[owner]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// OwedAcks reports how many pushes to owner have been written whose acks
// are still unread — the depth of the peer's pipeline right now. It waits
// for the operation in flight on that peer, if any.
func (t *SocketTransport) OwedAcks(owner int) int {
	p := t.peers[owner]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.owed
}

// Name reports the socket family ("unix" or "tcp").
func (t *SocketTransport) Name() string { return t.cfg.Network }

// Multiproc reports true: rows cross a process boundary.
func (t *SocketTransport) Multiproc() bool { return true }

// Close reaps the acks every healthy peer still owes and closes the
// connections, returning the first reap failure — a final push that never
// reached its owner is reported, not lost silently (peers already dead
// reported their failure to the operation that hit it). Operations still in
// flight get closeGrace to finish; after that their conns are closed under
// them and they fail with ErrClosed. Each reaped ack gets closeGrace too, so
// Close never waits out an IO timeout on a hung peer, idle or mid-operation.
// Idempotent: later calls return the first call's result.
func (t *SocketTransport) Close() error {
	t.closed.Do(func() {
		t.dead.Store(true)
		deadline := time.Now().Add(closeGrace) //hotline:allow detorder shutdown grace; a fault policy, not math
		for owner, p := range t.peers {
			if p == nil {
				continue
			}
			idle := p.mu.TryLock()
			for !idle && time.Now().Before(deadline) { //hotline:allow detorder shutdown grace; a fault policy, not math
				time.Sleep(closeGrace / 200)
				idle = p.mu.TryLock()
			}
			if idle && p.err == nil && p.conn != nil {
				if err := t.reap(owner, p); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
			p.connMu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.connMu.Unlock()
			if idle {
				p.mu.Unlock()
			}
		}
	})
	return t.closeErr
}

// exchange is one stop-and-wait round trip — send, then recv — for the
// hello, the one frame whose reply must be read before anything follows.
// The caller holds p.mu.
func (t *SocketTransport) exchange(owner int, p *socketPeer, req *wireMsg, want byte) error {
	p.out = appendMsg(p.frame(), req)
	if err := t.send(owner, p); err != nil {
		return err
	}
	return t.recv(owner, p, want)
}

// frame returns the peer's encode scratch, emptied, with the frame's 4-byte
// length prefix reserved for writeFrame to fill.
func (p *socketPeer) frame() []byte { return append(p.out[:0], 0, 0, 0, 0) }

// fail marks the peer dead with a typed error and closes its conn. Both %w
// verbs matter: callers classify on ErrPeerDead AND on the underlying codec
// error (ErrFrameTooLarge & co) via errors.Is. The wrap carries the node id
// and its dial address so a failure in a many-node fabric names the process
// to look at. I/O that failed because Close closed the conn under it is
// Close's doing, not the peer's: it is typed ErrClosed, so no recovery layer
// tries to revive or adopt away a peer the coordinator hung up on itself.
func (t *SocketTransport) fail(owner int, p *socketPeer, stage string, err error) error {
	class := ErrPeerDead
	if t.dead.Load() && errors.Is(err, net.ErrClosed) {
		class = ErrClosed
	}
	p.err = fmt.Errorf("%w: node %d (%s %s) %s: %w", class, owner, t.cfg.Network, p.addr, stage, err)
	p.conn.Close()
	return p.err
}

// ioDeadline is the deadline of a frame read or written now: Timeouts.IO
// away, or closeGrace once Close has begun — Close reaps what the peers owe
// and must not wait out a full IO timeout on one that has gone silent.
func (t *SocketTransport) ioDeadline() time.Time {
	d := t.cfg.Timeouts.IO
	if t.dead.Load() {
		d = min(d, closeGrace)
	}
	return time.Now().Add(d) //hotline:allow detorder deadline arming; timeouts are a fault policy, not math
}

// send writes the frame staged in p.out under a fresh write deadline. It
// does not read: what the node answers is recv's (or reap's) business. The
// caller holds p.mu. Any failure marks the peer dead.
//
//hotline:hotpath
func (t *SocketTransport) send(owner int, p *socketPeer) error {
	if p.err != nil {
		return p.err
	}
	if t.dead.Load() {
		return ErrClosed
	}
	// Per-frame deadlines, checked: the write deadline covers exactly this
	// frame's write, and recv arms its own, so a slow peer mid-frame gets
	// the full IO budget rather than riding what remained of a stale one.
	if err := p.conn.SetWriteDeadline(t.ioDeadline()); err != nil {
		return t.fail(owner, p, "arm write deadline", err)
	}
	if err := writeFrame(p.conn, p.out); err != nil {
		return t.fail(owner, p, "write", err)
	}
	return nil
}

// recv reads exactly one reply frame under a fresh read deadline, decodes
// it into p.rep and demands the wanted opcode (an opError reply surfaces as
// its mapped typed error and leaves the peer healthy: framing is intact, the
// node answered). The caller holds p.mu, and p.rep is stable until its next
// recv. Any I/O or protocol failure marks the peer dead.
//
//hotline:hotpath
func (t *SocketTransport) recv(owner int, p *socketPeer, want byte) error {
	if p.err != nil {
		return p.err
	}
	if err := p.conn.SetReadDeadline(t.ioDeadline()); err != nil {
		return t.fail(owner, p, "arm read deadline", err)
	}
	payload, err := readFrame(p.conn, p.in)
	if err != nil {
		return t.fail(owner, p, "read", err)
	}
	p.in = payload[:cap(payload)]
	if err := decodeMsg(payload, &p.rep); err != nil {
		return t.fail(owner, p, "decode", err)
	}
	if p.rep.op == opError {
		return wireErr(p.rep.code, p.rep.text)
	}
	if p.rep.op != want {
		return t.fail(owner, p, "reply", badReply(p.rep.op, want))
	}
	return nil
}

// badReply types a well-framed reply with the wrong opcode: a protocol
// violation (the stream is desynced), ErrBadFrame so the fault grid can
// classify it.
func badReply(got, want byte) error {
	return fmt.Errorf("%w: reply opcode %d, want %d", ErrBadFrame, got, want)
}

// reap reads the acks the peer owes, oldest first, each under its own read
// deadline. The failure of a push surfaces here, in whichever operation
// reaps it: a missing or wrong ack marks the peer dead exactly as a failed
// reply does. The caller holds p.mu.
func (t *SocketTransport) reap(owner int, p *socketPeer) error {
	for p.owed > 0 {
		p.owed--
		if err := t.recv(owner, p, opAck); err != nil {
			if p.err == nil {
				// An error frame in an ack's place: the node rejected the
				// push and drops the connection after saying so.
				return t.fail(owner, p, "ack", err)
			}
			return err
		}
	}
	return nil
}

// maxRowsPerFrame returns how many dim-wide rows fit one frame with slack
// for the opcode and varint headers.
func maxRowsPerFrame(dim int) int {
	n := (MaxFrame - 64) / (5 + 4*dim) // ≤5 varint bytes per row id + payload
	if n < 1 {
		n = 1
	}
	return n
}

// Fetch implements Transport: the listed rows stream back from their owner
// process into the staging buffer, after the acks of every earlier push to
// that owner — so the rows carry those pushes' bits. Requests are chunked so
// neither a fetch frame nor its reply exceeds MaxFrame, and pipelined: the
// chunk requests are written ahead (within maxFetchAhead) and their replies
// read back in order, one round trip for the lot instead of one per chunk.
// The bytes come off the socket, never from the coordinator's row view.
func (t *SocketTransport) Fetch(table, owner int, rows []int32, st *Staging, _ FetchFunc) error {
	p := t.peers[owner]
	chunk := maxRowsPerFrame(st.dim)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := t.reap(owner, p); err != nil {
		return err
	}
	// rows[:replied] are staged and rows[replied:sent] requested, at most
	// ahead chunks of them.
	ahead := fetchAhead(chunk)
	sent, replied := 0, 0
	for replied < len(rows) {
		for sent < len(rows) && sent-replied < ahead*chunk {
			n := min(len(rows)-sent, chunk)
			p.out = appendMsg(p.frame(), &wireMsg{op: opFetch, table: table, rows: rows[sent : sent+n]})
			if err := t.send(owner, p); err != nil {
				return err
			}
			sent += n
		}
		n := min(len(rows)-replied, chunk)
		err := t.recvRows(owner, p, rows[replied:replied+n], st)
		replied += n
		if err != nil {
			// A typed application error (an unknown row) leaves the stream
			// healthy: read off the replies of the chunks already requested,
			// whatever they say, so the next operation starts in step.
			for ; replied < sent && p.err == nil; replied += min(sent-replied, chunk) {
				_ = t.recv(owner, p, opRows)
			}
			return err
		}
	}
	return nil
}

// fetchAhead returns how many requests of chunk rows each a Fetch may leave
// unanswered: as many as fit maxFetchAheadBytes at the encoding's worst case
// (5 varint bytes per row id), at least one, at most maxFetchAhead.
func fetchAhead(chunk int) int {
	return max(1, min(maxFetchAhead, maxFetchAheadBytes/(16+5*chunk)))
}

// recvRows reads one chunk's reply and copies its rows into their staging
// slots. The caller holds p.mu, which keeps the decoded reply stable.
func (t *SocketTransport) recvRows(owner int, p *socketPeer, rows []int32, st *Staging) error {
	if err := t.recv(owner, p, opRows); err != nil {
		return err
	}
	rep := &p.rep
	if len(rep.rows) != len(rows) || (len(rows) > 0 && rep.dim != st.dim) {
		return t.fail(owner, p, "reply", fmt.Errorf("%w: %d rows dim %d, want %d rows dim %d",
			ErrBadFrame, len(rep.rows), rep.dim, len(rows), st.dim))
	}
	for i, r := range rep.rows {
		if v, ok := st.Lookup(r); ok {
			copy(v, rep.vals[i*rep.dim:(i+1)*rep.dim])
		}
	}
	return nil
}

// Push implements Transport: the rows' current payloads are written to
// their owner's ordered stream, chunked under MaxFrame, and the acks are
// left for a later operation to reap. A returned nil therefore means "on
// the stream", not "in the owner's store": the owner applies the push before
// it answers any later operation on this transport, which is all a reader of
// those rows needs. A push that is lost after the write surfaces as the
// failure of the next operation on the peer (or of Close). Acks are reaped
// here only when maxOwedAcks of them are outstanding.
func (t *SocketTransport) Push(table, owner int, rows []int32, src RowAt) error {
	if len(rows) == 0 {
		return nil
	}
	p := t.peers[owner]
	dim := len(src(rows[0]))
	chunk := maxRowsPerFrame(dim)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(rows) > 0 {
		n := min(len(rows), chunk)
		p.out = appendPush(p.frame(), table, dim, rows[:n], src)
		if err := t.send(owner, p); err != nil {
			return err
		}
		if p.owed++; p.owed >= maxOwedAcks {
			if err := t.reap(owner, p); err != nil {
				return err
			}
		}
		rows = rows[n:]
	}
	return nil
}

// LocalFabric is a self-contained socket fabric for tests, experiments and
// single-machine runs: every NodeServer runs in-process behind a real unix
// or port-0 TCP socket, so frames still cross the kernel and the wall-clock
// numbers are honest socket numbers, without spawning OS processes. Its
// nodes can be killed and restarted mid-run, empty and on a fresh address —
// what a SIGTERM'd and re-spawned hotline-node process looks like to the
// coordinator — which is how every recovery path is exercised.
type LocalFabric struct {
	Transport *SocketTransport
	// Servers[n] is node n's server, nil while node n is killed. Kill,
	// Restart and a due RestartAfter replace entries under the fabric's
	// lock: read it only while none of them can run.
	Servers []*NodeServer
	network string
	dir     string // unix socket dir, "" on tcp

	mu      sync.Mutex
	gen     []int // per-node listen generation: a restart never reuses an address
	timers  []*time.Timer
	pending sync.WaitGroup // RestartAfter timers not yet finished or stopped
	closed  bool
}

// StartLocalFabric listens one NodeServer per node and dials the fabric.
// network is "unix" (sockets under a fresh temp dir) or "tcp" (loopback,
// port 0). timeout bounds each fabric operation (FabricTimeouts.IO; zero
// selects the defaults) and wrap is FabricConfig.WrapConn (nil for a
// healthy fabric).
func StartLocalFabric(nodes int, network string, timeout time.Duration, wrap func(int, net.Conn) net.Conn) (*LocalFabric, error) {
	f := &LocalFabric{Servers: make([]*NodeServer, nodes), network: network, gen: make([]int, nodes)}
	switch network {
	case "unix":
		// Keep the path short: unix socket paths cap near 100 bytes.
		d, err := os.MkdirTemp("", "hlfab")
		if err != nil {
			return nil, err
		}
		f.dir = d
	case "tcp":
	default:
		return nil, fmt.Errorf("%w: unknown fabric network %q", ErrFabricConfig, network)
	}
	addrs := make([]string, nodes)
	for n := range nodes {
		srv, err := f.serve(n)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Servers[n] = srv
		addrs[n] = srv.Addr()
	}
	tr, err := DialFabric(FabricConfig{
		Network: network, Addrs: addrs,
		Timeouts: FabricTimeouts{Dial: timeout, IO: timeout},
		WrapConn: wrap,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Transport = tr
	return f, nil
}

// serve listens a fresh, empty node n: on unix at a generation-suffixed path
// (a closed unix listener unlinks its file, so "the first free path" would
// hand a restarted node its predecessor's address), on tcp at loopback port
// 0. The caller holds f.mu or is StartLocalFabric.
func (f *LocalFabric) serve(n int) (*NodeServer, error) {
	addr := "127.0.0.1:0"
	if f.network == "unix" {
		addr = filepath.Join(f.dir, fmt.Sprintf("n%d_%d.sock", n, f.gen[n]))
	}
	f.gen[n]++
	return ServeNode(n, f.network, addr, 0)
}

// Kill closes node n's server — the in-process equivalent of SIGTERM
// (hotline-node's signal handler calls exactly this Close). Killing a killed
// node does nothing.
func (f *LocalFabric) Kill(n int) {
	f.mu.Lock()
	srv := f.Servers[n]
	f.Servers[n] = nil
	f.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Restart starts node n again, empty and on an address it never had; a live
// node n is killed first. A ResilientTransport whose Resolve is f.Resolve
// finds it at its next re-dial, and the service's resync restores its shard
// from the mirror. After Close it starts nothing and returns ErrClosed.
func (f *LocalFabric) Restart(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("%w: local fabric node %d restart", ErrClosed, n)
	}
	if old := f.Servers[n]; old != nil {
		old.Close()
		f.Servers[n] = nil
	}
	// Listening under the lock orders this restart against Close: either
	// Close finds the new server in Servers, or this finds closed set.
	srv, err := f.serve(n)
	if err != nil {
		return err
	}
	f.Servers[n] = srv
	return nil
}

// RestartAfter restarts node n d from now, on the wall clock: a training
// loop blocked inside the transport's retry never reaches its next window,
// so only a timer can revive the peer it waits for. Close cancels it.
func (f *LocalFabric) RestartAfter(n int, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.pending.Add(1)
	f.timers = append(f.timers, time.AfterFunc(d, func() {
		defer f.pending.Done()
		// Its only failures are ErrClosed, which is the cancellation, and a
		// listen error, which the re-dial that finds no node reports.
		_ = f.Restart(n)
	}))
}

// Resolve reports node n's current dial address, "" while it is killed. It
// is a RetryConfig.Resolve: re-dials follow a restarted node to its new
// address.
func (f *LocalFabric) Resolve(n int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.Servers[n] == nil {
		return "", nil
	}
	return f.Servers[n].Addr(), nil
}

// Close tears the fabric down: pending restarts first (it returns only once
// none can run), then the transport, the servers and the socket dir.
// Idempotent.
func (f *LocalFabric) Close() error {
	f.mu.Lock()
	f.closed = true // RestartAfter arms no more timers
	timers := f.timers
	f.mu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			f.pending.Done()
		}
	}
	f.pending.Wait()
	var first error
	if f.Transport != nil {
		first = f.Transport.Close()
	}
	for n := range f.Servers {
		f.Kill(n)
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return first
}
