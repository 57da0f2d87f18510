//hotline:typed-errors

package chaos

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"hotline/internal/shard"
)

// Fabric is the restartable node fabric the chaos schedule drives: every
// node is a real NodeServer behind a real socket, killable mid-run and
// restartable on a fresh address with an empty store (exactly what a
// SIGTERM'd and re-spawned hotline-node process looks like to the
// coordinator). The fabric's connection wrapper injects the schedule's link
// faults — and because re-dials run through the same wrapper, a revived
// connection stays subject to the schedule.
type Fabric struct {
	network  string
	nodes    int
	timeouts shard.FabricTimeouts
	dir      string

	mu        sync.Mutex
	servers   []*shard.NodeServer // nil while killed
	addrs     []string            // current dial address per node
	gen       []int               // address generation (restarts move)
	delay     []time.Duration     // injected per-read link delay
	delayLeft []int               // remaining windows of the link delay
	corrupt   []bool              // poison the next reply read
	timers    []*time.Timer
	schedule  Schedule
	timeline  []TimelineEntry
	closed    bool
}

// TimelineEntry is one applied chaos action with its wall timestamp —
// the raw material for recovery-latency reporting.
type TimelineEntry struct {
	At   time.Time
	What string
}

// NewFabric starts nodes NodeServers on the given socket family with no
// faults armed. Close releases everything.
func NewFabric(nodes int, network string, timeouts shard.FabricTimeouts) (*Fabric, error) {
	if network != "unix" && network != "tcp" {
		return nil, fmt.Errorf("%w: chaos fabric network %q", shard.ErrFabricConfig, network)
	}
	f := &Fabric{
		network:   network,
		nodes:     nodes,
		timeouts:  timeouts.WithDefaults(),
		servers:   make([]*shard.NodeServer, nodes),
		addrs:     make([]string, nodes),
		gen:       make([]int, nodes),
		delay:     make([]time.Duration, nodes),
		delayLeft: make([]int, nodes),
		corrupt:   make([]bool, nodes),
	}
	if network == "unix" {
		d, err := os.MkdirTemp("", "hlchaos")
		if err != nil {
			return nil, err
		}
		f.dir = d
	}
	for n := 0; n < nodes; n++ {
		if err := f.startNode(n); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// startNode launches one node on a fresh address. Caller does not hold f.mu.
func (f *Fabric) startNode(node int) error {
	f.mu.Lock()
	gen := f.gen[node]
	f.gen[node]++
	f.mu.Unlock()
	addr := "127.0.0.1:0"
	if f.network == "unix" {
		// Generation-suffixed paths: a restarted node never fights its
		// predecessor's socket file.
		addr = fmt.Sprintf("%s/n%d_%d.sock", f.dir, node, gen)
	}
	srv, err := shard.ServeNode(node, f.network, addr, 0)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.servers[node] = srv
	f.addrs[node] = srv.Addr()
	f.mu.Unlock()
	return nil
}

// Addrs returns every node's current dial address.
func (f *Fabric) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.addrs...)
}

// Server returns node's live NodeServer (nil while killed).
func (f *Fabric) Server(node int) *shard.NodeServer {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servers[node]
}

// Resolve reports a node's current dial address — the ResilientTransport's
// Resolve hook, pointing re-dials at restarted processes.
func (f *Fabric) Resolve(owner int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addrs[owner], nil
}

// Dial connects a ResilientTransport to the fabric, wiring the chaos
// connection wrapper and (unless the caller supplied one) the Resolve hook.
func (f *Fabric) Dial(retry shard.RetryConfig) (*shard.ResilientTransport, error) {
	if retry.Resolve == nil {
		retry.Resolve = f.Resolve
	}
	inner, err := shard.DialFabric(shard.FabricConfig{
		Network:  f.network,
		Addrs:    f.Addrs(),
		Timeouts: f.timeouts,
		WrapConn: f.wrap,
	})
	if err != nil {
		return nil, err
	}
	return shard.NewResilientTransport(inner, retry)
}

// SetSchedule installs the fault schedule Tick applies.
func (f *Fabric) SetSchedule(s Schedule) {
	f.mu.Lock()
	f.schedule = s
	f.mu.Unlock()
}

// Tick applies every scheduled event for training window w, then ages the
// link delays by one window. Kills and link faults apply immediately;
// restarts arm a wall-clock timer — a training loop blocked inside the
// transport's retry never advances windows, so only a timer can revive the
// peer it is waiting for.
func (f *Fabric) Tick(w int) {
	f.mu.Lock()
	var kills []int
	var restarts []Event
	for _, e := range f.schedule {
		if e.Window != w {
			continue
		}
		switch e.Kind {
		case KillPeer:
			kills = append(kills, e.Peer)
		case RestartPeer:
			restarts = append(restarts, e)
		case DelayLink:
			f.delay[e.Peer] = e.Delay
			f.delayLeft[e.Peer] = e.Windows
			f.note("w%d: delay link %d by %s for %d windows", w, e.Peer, e.Delay, e.Windows)
		case CorruptFrame:
			f.corrupt[e.Peer] = true
			f.note("w%d: corrupt next frame from %d", w, e.Peer)
		}
	}
	for n := range f.delayLeft {
		if f.delayLeft[n] > 0 {
			f.delayLeft[n]--
			if f.delayLeft[n] == 0 {
				f.delay[n] = 0
			}
		}
	}
	f.mu.Unlock()
	for _, peer := range kills {
		f.Kill(peer)
	}
	for _, e := range restarts {
		f.armRestart(w, e)
	}
}

// Kill closes a node's process — the coordinator-visible equivalent of
// SIGTERM (hotline-node's signal handler calls exactly this Close).
func (f *Fabric) Kill(peer int) {
	f.mu.Lock()
	srv := f.servers[peer]
	f.servers[peer] = nil
	f.note("kill node %d", peer)
	f.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// armRestart schedules a wall-delayed restart of a killed peer.
func (f *Fabric) armRestart(w int, e Event) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.note("w%d: restart of node %d armed in %s", w, e.Peer, e.After)
	t := time.AfterFunc(e.After, func() { f.Restart(e.Peer) })
	f.timers = append(f.timers, t)
	f.mu.Unlock()
}

// Restart launches a fresh, empty node process for peer on a new address.
// The transport's Resolve hook picks the address up on its next re-dial and
// the service's resync restores the shard from the mirror.
func (f *Fabric) Restart(peer int) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("%w: chaos fabric closed", shard.ErrClosed)
	}
	f.mu.Unlock()
	if err := f.startNode(peer); err != nil {
		return err
	}
	f.mu.Lock()
	f.note("node %d restarted on %s", peer, f.addrs[peer])
	f.mu.Unlock()
	return nil
}

// Timeline returns the applied chaos actions with wall timestamps.
func (f *Fabric) Timeline() []TimelineEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]TimelineEntry(nil), f.timeline...)
}

// note appends a timeline entry. Caller holds f.mu.
func (f *Fabric) note(format string, args ...any) {
	f.timeline = append(f.timeline, TimelineEntry{At: time.Now(), What: fmt.Sprintf(format, args...)})
}

// Close stops pending restart timers, every live node, and removes the
// socket dir. Idempotent.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	timers := f.timers
	servers := append([]*shard.NodeServer(nil), f.servers...)
	f.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, s := range servers {
		if s != nil {
			s.Close()
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return nil
}

// linkState reads the current fault state of one peer link.
func (f *Fabric) linkState(peer int) (delay time.Duration, corrupt bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delay[peer], f.corrupt[peer]
}

// takeCorrupt consumes the peer's one-shot corruption flag.
func (f *Fabric) takeCorrupt(peer int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	was := f.corrupt[peer]
	f.corrupt[peer] = false
	return was
}

// wrap is the FabricConfig.WrapConn injector: every coordinator→node
// connection — including each re-dial — reads replies through the fault
// state the schedule maintains.
func (f *Fabric) wrap(owner int, c net.Conn) net.Conn {
	return &chaosConn{Conn: c, f: f, peer: owner}
}

// chaosConn injects link faults on the reply direction: an armed DelayLink
// sleeps before each read, and an armed CorruptFrame flips the first byte
// of the next read — the length prefix — so the frame can never decode
// (the non-retriable corruption class).
type chaosConn struct {
	net.Conn
	f    *Fabric
	peer int
}

func (c *chaosConn) Read(p []byte) (int, error) {
	delay, corrupt := c.f.linkState(c.peer)
	if delay > 0 {
		time.Sleep(delay)
	}
	n, err := c.Conn.Read(p)
	if corrupt && n > 0 && c.f.takeCorrupt(c.peer) {
		p[0] ^= 0xa5
	}
	return n, err
}
