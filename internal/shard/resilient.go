//hotline:typed-errors

// Resilient fabric layer: retry and re-dial around the fail-fast
// SocketTransport.
//
// The socket transport deliberately knows nothing about recovery — one bad
// frame and the peer is sticky-dead. ResilientTransport layers policy on
// top: it classifies each failure (transient I/O retries, protocol
// corruption surfaces immediately), re-dials dead peers under a bounded
// backoff schedule — at the address Resolve reports, when it is set — and
// resyncs a freshly dialed (empty) node from the coordinator's
// authoritative mirror. Every fetch and scatter in the fabric carries
// absolute row values, so replaying an operation after a re-dial is
// idempotent — the retry loop never needs to reason about partial
// application.
//
// The socket transport's pushes are pipelined: a push returns once its frame
// is written, and a push the owner never applied surfaces later, as the
// failure of whichever operation on that peer reaps its ack. The retry loop
// needs no record of which pushes were in doubt. The failed operation's
// recovery re-dials (the fresh stream owes no acks) and resyncs the peer's
// whole shard from the mirror, which holds the current bits of every row a
// lost push carried; then the operation replays.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PeerState is one peer's position in the recovery state machine.
type PeerState int32

const (
	// PeerAlive: last operation succeeded; requests flow normally.
	PeerAlive PeerState = iota
	// PeerSuspect: an operation failed transiently; recovery (re-dial,
	// resync) is pending or in flight.
	PeerSuspect
	// PeerDead: the retry budget is exhausted; the peer is unrecoverable
	// and only shard adoption (Service-level failover) can route around it.
	// Terminal: nothing re-dials a dead peer, not even a serve probe.
	PeerDead
)

// String names the state for health snapshots and logs.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	}
	return fmt.Sprintf("PeerState(%d)", int32(s))
}

// PeerHealth is a point-in-time snapshot of one peer's recovery state — the
// observability surface that replaces squinting at a single sticky
// FabricErr.
type PeerHealth struct {
	Node     int
	Addr     string // current dial address (moves when Resolve reports a restart)
	State    PeerState
	Failures int    // consecutive failed operations since the last success
	Redials  int    // successful re-dials over the peer's lifetime
	LastErr  string // most recent failure, "" while healthy
}

// RetryConfig tunes the resilient layer. The zero value is a working
// production config; tests set Backoff to zero to recover without pauses.
type RetryConfig struct {
	// MaxAttempts bounds how many times one operation runs (first try
	// included), each retry preceded by a successful recovery. Default 3.
	MaxAttempts int
	// MaxRedials bounds dial attempts within one recovery. Default 8.
	MaxRedials int
	// Budget bounds one recovery's total wall clock; exhausted budget
	// declares the peer unrecoverable (the point where shard adoption
	// takes over). Default 30s.
	Budget time.Duration
	// Backoff returns the pause before redial attempt n (0-based).
	// Default: 1ms doubling per attempt, capped at 250ms.
	Backoff func(attempt int) time.Duration
	// Resolve, when set, is asked for the peer's current address before
	// each redial — the hook a restart harness uses to point the fabric at
	// a node re-listening on a new port. Returning "" keeps the current
	// address; returning an error skips this redial attempt.
	Resolve func(owner int) (string, error)
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.MaxRedials == 0 {
		c.MaxRedials = 8
	}
	if c.Budget == 0 {
		c.Budget = 30 * time.Second
	}
	if c.Backoff == nil {
		c.Backoff = func(attempt int) time.Duration {
			d := time.Millisecond << min(attempt, 10)
			return min(d, 250*time.Millisecond)
		}
	}
	return c
}

// rPeer is one peer's recovery state. Operations hold mu.RLock around the
// inner transport call; recovery holds mu.Lock across redial+resync so no
// fetch can race a freshly dialed, not-yet-resynced (empty) node. recMu
// single-flights recovery: concurrent failers queue behind it and find the
// peer already revived. state is the peer's one liveness record; only
// recoverPeer, under recMu, stores PeerDead.
type rPeer struct {
	mu    sync.RWMutex
	recMu sync.Mutex

	state   atomic.Int32
	fails   atomic.Int32
	redials atomic.Int32

	errMu   sync.Mutex
	lastErr error
}

func (p *rPeer) loadState() PeerState { return PeerState(p.state.Load()) }

// setState moves the peer to s unless it is dead: PeerDead is terminal.
func (p *rPeer) setState(s PeerState) {
	for {
		cur := p.state.Load()
		if PeerState(cur) == PeerDead || p.state.CompareAndSwap(cur, int32(s)) {
			return
		}
	}
}

func (p *rPeer) setErr(err error) {
	p.errMu.Lock()
	p.lastErr = err
	p.errMu.Unlock()
}

func (p *rPeer) lastError() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastErr
}

// run runs op once under the peer's read lock and records the outcome:
// success makes the peer alive, failure suspect (a dead peer stays dead).
func (p *rPeer) run(op func() error) error {
	p.mu.RLock()
	err := op()
	p.mu.RUnlock()
	if err != nil {
		p.fails.Add(1)
		p.setErr(err)
		p.setState(PeerSuspect)
		return err
	}
	p.setState(PeerAlive)
	p.fails.Store(0)
	p.setErr(nil)
	return nil
}

// ResilientTransport wraps a SocketTransport with retry, re-dial and
// resync. It implements Transport and is safe for concurrent use; recovery
// of one peer never blocks traffic to the others.
type ResilientTransport struct {
	inner *SocketTransport
	cfg   RetryConfig
	peers []*rPeer

	// resync restores a freshly (re-)dialed node's shard from the
	// coordinator mirror, pushing through direct so it cannot recurse into
	// this layer's locks. Service.SetTransport wires it before any traffic;
	// read-only after. A fabric without one revives peers with empty stores,
	// which is only correct for processes resynced some other way.
	resync func(owner int, direct Transport) error

	// recoveryWallNS accumulates the wall clock spent inside successful
	// recoveries (backoff sleeps, redials, resync) — the transport-side
	// recovery latency the mn-chaos scenario reports.
	recoveryWallNS atomic.Int64
}

// NewResilientTransport layers retry/re-dial policy over a dialed socket
// fabric. The resilient layer owns inner from here on; Close closes it.
func NewResilientTransport(inner *SocketTransport, cfg RetryConfig) (*ResilientTransport, error) {
	if inner == nil {
		return nil, fmt.Errorf("%w: resilient layer needs a dialed SocketTransport", ErrFabricConfig)
	}
	if cfg.MaxAttempts < 0 || cfg.MaxRedials < 0 || cfg.Budget < 0 {
		return nil, fmt.Errorf("%w: negative retry bound in %+v", ErrFabricConfig, cfg)
	}
	cfg = cfg.withDefaults()
	r := &ResilientTransport{inner: inner, cfg: cfg, peers: make([]*rPeer, len(inner.peers))}
	for i := range r.peers {
		r.peers[i] = &rPeer{}
	}
	return r, nil
}

// Name reports the inner socket family; the retry layer is policy, not a
// different wire.
func (r *ResilientTransport) Name() string { return r.inner.Name() }

// Multiproc reports true: rows still cross a process boundary.
func (r *ResilientTransport) Multiproc() bool { return true }

// Close closes the inner fabric.
func (r *ResilientTransport) Close() error { return r.inner.Close() }

// Fetch implements Transport with retry: transient failures trigger
// recovery (re-dial + resync) and the fetch replays — idempotent, the rows
// stream absolute values. Corruption-class failures surface immediately.
func (r *ResilientTransport) Fetch(table, owner int, rows []int32, st *Staging, _ FetchFunc) error {
	return r.do(owner, func() error { return r.inner.Fetch(table, owner, rows, st, nil) })
}

// Push implements Transport with retry. Scatter pushes carry the rows'
// absolute current values, so a replay after re-dial is idempotent. A nil
// return means what the inner transport's does — the frame is on the owner's
// ordered stream — and a push lost after that is healed by the resync of the
// operation that discovers it.
func (r *ResilientTransport) Push(table, owner int, rows []int32, src RowAt) error {
	return r.do(owner, func() error { return r.inner.Push(table, owner, rows, src) })
}

// FetchFast is the serve path's fetch: exactly one attempt, no backoff
// sleeps. Against a suspect peer it makes at most one opportunistic
// recovery probe (re-dial + resync, single-flight, budget-free) so serving
// un-degrades by itself when the peer returns; against a dead one, and
// whenever the probe fails, it fails fast so the caller can answer from
// warmed caches instead.
func (r *ResilientTransport) FetchFast(table, owner int, rows []int32, st *Staging) error {
	p := r.peers[owner]
	op := func() error { return r.inner.Fetch(table, owner, rows, st, nil) }
	if p.loadState() == PeerAlive {
		if err := p.run(op); err == nil || !TransientFabricErr(err) {
			return err
		}
	}
	if err := r.probePeer(owner); err != nil {
		return err
	}
	return p.run(op)
}

// PeerHealth snapshots every peer's recovery state, ordered by node id.
func (r *ResilientTransport) PeerHealth() []PeerHealth {
	out := make([]PeerHealth, len(r.peers))
	for i, p := range r.peers {
		h := PeerHealth{
			Node:     i,
			Addr:     r.inner.peerAddr(i),
			State:    p.loadState(),
			Failures: int(p.fails.Load()),
			Redials:  int(p.redials.Load()),
		}
		if err := p.lastError(); err != nil {
			h.LastErr = err.Error()
		}
		out[i] = h
	}
	return out
}

// TransientFabricErr classifies a fabric failure: true means retrying after
// a re-dial can help (connection loss, timeout, truncated stream), false
// means it cannot or must not (protocol corruption, unknown rows, config
// errors, a closed fabric).
func TransientFabricErr(err error) bool {
	switch {
	case err == nil:
		return false
	case isAny(err, ErrBadFrame, ErrFrameTooLarge):
		// Corruption: the stream produced bytes that never form a valid
		// frame. Retrying blind risks re-applying whatever poisoned it;
		// surface it and let the operator (or the chaos test) look.
		return false
	case isAny(err, ErrUnknownRow, ErrFabricConfig, ErrClosed):
		return false
	}
	// Everything else — dial refusals, I/O timeouts, EOF/truncated frames,
	// plain ErrPeerDead — is connection-class and worth a re-dial.
	return true
}

// do runs one idempotent operation with the retry policy: op under the
// peer's read lock; transient failure → single-flight recovery → replay.
func (r *ResilientTransport) do(owner int, op func() error) error {
	p := r.peers[owner]
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 || p.loadState() != PeerAlive {
			if err := r.recoverPeer(owner); err != nil {
				return err
			}
		}
		err := p.run(op)
		if err == nil || !TransientFabricErr(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w: node %d (%s %s) still failing after %d attempts: %w",
		ErrPeerDead, owner, r.inner.cfg.Network, r.inner.peerAddr(owner), r.cfg.MaxAttempts, lastErr)
}

// deadErr describes an unrecoverable peer, wrapping its terminal error.
func (r *ResilientTransport) deadErr(owner int, p *rPeer) error {
	last := p.lastError()
	if last == nil {
		last = ErrPeerDead
	}
	return fmt.Errorf("%w: node %d (%s %s) unrecoverable: %w",
		ErrPeerDead, owner, r.inner.cfg.Network, r.inner.peerAddr(owner), last)
}

// recoverPeer revives one peer: bounded backoff re-dials, each followed by
// a mirror resync under the peer's write lock (revive), so no operation can
// observe the half-revived (empty) node. Single-flight: concurrent failers
// block on recMu and find the peer already alive. Exhausting the budget
// marks the peer dead — from then on only shard adoption serves its rows.
func (r *ResilientTransport) recoverPeer(owner int) error {
	p := r.peers[owner]
	p.recMu.Lock()
	defer p.recMu.Unlock()
	switch p.loadState() {
	case PeerDead:
		return r.deadErr(owner, p)
	case PeerAlive:
		return nil // another flight already revived it
	}
	start := time.Now() //hotline:allow detorder measured recovery wall and retry budget; never feeds math
	deadline := start.Add(r.cfg.Budget)
	lastErr := p.lastError()
	for attempt := 0; ; attempt++ {
		if attempt >= r.cfg.MaxRedials || time.Now().After(deadline) { //hotline:allow detorder retry budget on the wall clock; never feeds math
			p.state.Store(int32(PeerDead))
			err := fmt.Errorf("%w: node %d (%s %s) unrecoverable after %d redials: %w",
				ErrPeerDead, owner, r.inner.cfg.Network, r.inner.peerAddr(owner), attempt, lastErr)
			p.setErr(err)
			return err
		}
		time.Sleep(r.cfg.Backoff(attempt))
		if err := r.revive(owner, p); err != nil {
			lastErr = err
			continue
		}
		r.recoveryWallNS.Add(time.Since(start).Nanoseconds()) //hotline:allow detorder measured recovery wall; never feeds math
		return nil
	}
}

// RecoveryWall reports the cumulative wall clock successful recoveries took
// (from first failure handling to revival).
func (r *ResilientTransport) RecoveryWall() time.Duration {
	return time.Duration(r.recoveryWallNS.Load())
}

// probePeer is recoverPeer for the serve path: one redial attempt, no
// sleeps, no budget consumption, and TryLock instead of blocking — a serve
// gather never waits behind a training-side recovery. It never re-dials a
// dead peer.
func (r *ResilientTransport) probePeer(owner int) error {
	p := r.peers[owner]
	if !p.recMu.TryLock() {
		if err := p.lastError(); err != nil {
			return err
		}
		return fmt.Errorf("%w: node %d (%s %s) recovery in flight",
			ErrPeerDead, owner, r.inner.cfg.Network, r.inner.peerAddr(owner))
	}
	defer p.recMu.Unlock()
	switch p.loadState() {
	case PeerDead:
		return r.deadErr(owner, p)
	case PeerAlive:
		return nil
	}
	start := time.Now() //hotline:allow detorder measured recovery wall; never feeds math
	if err := r.revive(owner, p); err != nil {
		return err
	}
	r.recoveryWallNS.Add(time.Since(start).Nanoseconds()) //hotline:allow detorder measured recovery wall; never feeds math
	return nil
}

// revive re-dials the peer — at the address Resolve reports, when it reports
// one (a restart harness naming the new port) — and resyncs its shard from
// the mirror, under the write lock that keeps every operation out until the
// node holds correct bits again. A failure becomes the peer's last error.
func (r *ResilientTransport) revive(owner int, p *rPeer) error {
	if r.cfg.Resolve != nil {
		if addr, err := r.cfg.Resolve(owner); err == nil && addr != "" {
			r.inner.setPeerAddr(owner, addr)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	err := r.inner.redialPeer(owner)
	if err == nil && r.resync != nil {
		if rerr := r.resync(owner, r.inner); rerr != nil {
			err = fmt.Errorf("%w: node %d (%s %s) resync after redial: %w",
				ErrPeerDead, owner, r.inner.cfg.Network, r.inner.peerAddr(owner), rerr)
		}
	}
	if err != nil {
		p.setErr(err)
		return err
	}
	p.setState(PeerAlive)
	p.fails.Store(0)
	p.redials.Add(1)
	p.setErr(nil)
	return nil
}

// isAny reports errors.Is against any of the targets.
func isAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
