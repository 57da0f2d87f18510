//hotline:typed-errors

// Package chaos is the deterministic fault schedule for the shard fabric: a
// Schedule of kill/restart events that Apply drives against a
// shard.LocalFabric, so recovery tests and the mn-chaos scenario inject
// byte-identical fault sequences on every run.
//
// Determinism is the whole point — a recovery property that only holds for
// one lucky interleaving is not a property. Schedules are pure data; Apply
// fires them at training-window granularity with the single deliberate
// exception of restarts, which fire on a wall-clock timer
// (LocalFabric.RestartAfter): a training loop blocked inside the transport's
// retry path cannot advance windows, so a window-gated restart would
// deadlock the very scenario it exists to test.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"hotline/internal/shard"
)

// Kind is one chaos event type.
type Kind int

const (
	// KillPeer closes the peer's node process mid-run (the in-process
	// equivalent of SIGTERM: hotline-node's signal handler does exactly
	// this server Close).
	KillPeer Kind = iota
	// RestartPeer starts a fresh, empty node process for the peer on a new
	// address, After the event's wall delay.
	RestartPeer
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KillPeer:
		return "kill"
	case RestartPeer:
		return "restart"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	// Window is the training window Apply fires the event at.
	Window int
	Kind   Kind
	// Peer is the target node.
	Peer int
	// After delays a RestartPeer on the wall clock past its window.
	After time.Duration
}

// Schedule is a deterministic fault sequence, ordered by window.
type Schedule []Event

// String renders the schedule compactly ("w3:kill(1) w3:restart(1)+20ms").
func (s Schedule) String() string {
	if len(s) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, e := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "w%d:%s(%d)", e.Window, e.Kind, e.Peer)
		if e.Kind == RestartPeer && e.After > 0 {
			fmt.Fprintf(&b, "+%s", e.After)
		}
	}
	return b.String()
}

// Apply fires the schedule's events for training window on f, in schedule
// order: a kill at once, a restart After its wall delay.
func (s Schedule) Apply(f *shard.LocalFabric, window int) {
	for _, e := range s {
		if e.Window != window {
			continue
		}
		switch e.Kind {
		case KillPeer:
			f.Kill(e.Peer)
		case RestartPeer:
			f.RestartAfter(e.Peer, e.After)
		}
	}
}

// KillRestart is the canonical single-fault schedule: kill peer at window,
// restart it after the given wall delay.
func KillRestart(peer, window int, after time.Duration) Schedule {
	return Schedule{
		{Window: window, Kind: KillPeer, Peer: peer},
		{Window: window, Kind: RestartPeer, Peer: peer, After: after},
	}
}

// Kill is the no-mercy schedule: kill peer at window and never bring it
// back (the shard-adoption scenario).
func Kill(peer, window int) Schedule {
	return Schedule{{Window: window, Kind: KillPeer, Peer: peer}}
}
