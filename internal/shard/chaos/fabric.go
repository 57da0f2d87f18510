//hotline:typed-errors

package chaos

import (
	"fmt"
	"os"
	"sync"
	"time"

	"hotline/internal/shard"
)

// Fabric is the restartable node fabric the chaos schedule drives: every
// node is a real NodeServer behind a real socket, killable mid-run and
// restartable on a fresh address with an empty store (exactly what a
// SIGTERM'd and re-spawned hotline-node process looks like to the
// coordinator).
type Fabric struct {
	network  string
	timeouts shard.FabricTimeouts
	dir      string

	mu       sync.Mutex
	servers  []*shard.NodeServer // nil while killed
	addrs    []string            // current dial address per node
	gen      []int               // address generation (restarts move)
	timers   []*time.Timer
	schedule Schedule
	closed   bool
}

// NewFabric starts nodes NodeServers on the given socket family with no
// faults armed. Close releases everything.
func NewFabric(nodes int, network string, timeouts shard.FabricTimeouts) (*Fabric, error) {
	if network != "unix" && network != "tcp" {
		return nil, fmt.Errorf("%w: chaos fabric network %q", shard.ErrFabricConfig, network)
	}
	f := &Fabric{
		network:  network,
		timeouts: timeouts.WithDefaults(),
		servers:  make([]*shard.NodeServer, nodes),
		addrs:    make([]string, nodes),
		gen:      make([]int, nodes),
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

// Resolve reports a node's current dial address — the ResilientTransport's
// Resolve hook, pointing re-dials at restarted processes.
func (f *Fabric) Resolve(owner int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addrs[owner], nil
}

// Dial connects a ResilientTransport to the fabric, wiring (unless the
// caller supplied one) the Resolve hook.
func (f *Fabric) Dial(retry shard.RetryConfig) (*shard.ResilientTransport, error) {
	if retry.Resolve == nil {
		retry.Resolve = f.Resolve
	}
	inner, err := shard.DialFabric(shard.FabricConfig{
		Network:  f.network,
		Addrs:    f.Addrs(),
		Timeouts: f.timeouts,
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

// Tick applies every scheduled event for training window w. Kills apply
// immediately; restarts arm a wall-clock timer — a training loop blocked
// inside the transport's retry never advances windows, so only a timer can
// revive the peer it is waiting for.
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
		}
	}
	f.mu.Unlock()
	for _, peer := range kills {
		f.Kill(peer)
	}
	for _, e := range restarts {
		f.armRestart(e)
	}
}

// Kill closes a node's process — the coordinator-visible equivalent of
// SIGTERM (hotline-node's signal handler calls exactly this Close).
func (f *Fabric) Kill(peer int) {
	f.mu.Lock()
	srv := f.servers[peer]
	f.servers[peer] = nil
	f.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// armRestart schedules a wall-delayed restart of a killed peer.
func (f *Fabric) armRestart(e Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	t := time.AfterFunc(e.After, func() { f.Restart(e.Peer) })
	f.timers = append(f.timers, t)
}

// Restart launches a fresh, empty node process for peer on a new address.
// The transport's Resolve hook picks the address up on its next re-dial and
// the service's resync restores the shard from the mirror.
func (f *Fabric) Restart(peer int) error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: chaos fabric closed", shard.ErrClosed)
	}
	return f.startNode(peer)
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
