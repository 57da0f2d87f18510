//hotline:typed-errors

// Service-level recovery: shard adoption when a peer is past saving.
//
// The ResilientTransport handles everything that can be fixed at the
// connection level — retry, re-dial, resync. This file handles the case it
// cannot: a peer declared unrecoverable while training still needs its rows.
// The coordinator's mirror is authoritative (all training math happens
// there; node stores are replicas fed absolute row values), so failover is a
// pure routing change: repartition the dead node's rows over the survivors,
// push their current bits from the mirror, and re-route the failed fetches.
// Every staged row a forward consumes still holds exactly the bits a
// fault-free run would have staged — repairs and re-fetches always read
// current mirror state, and the dirty-row tracker already forces a repair
// wherever an update intervened — so training after failover is
// bit-identical to the fault-free fixed-placement run.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// RecoveryPolicy selects whether the service adopts a dead peer's shard.
// Re-dialing is not a policy: a ResilientTransport retries, re-dials and
// resyncs on its own, and any other transport fails fast.
type RecoveryPolicy int

const (
	// RecoverRedial, the zero value, adopts nothing: the transport's
	// re-dial is all the recovery there is, and a peer that exhausts its
	// retry budget fails the run.
	RecoverRedial RecoveryPolicy = iota
	// RecoverAdopt adds shard adoption: when a peer is unrecoverable, the
	// surviving nodes adopt its rows — ownership repartitions, the mirror
	// migrates the rows, failed operations re-route — and the run completes
	// without it, down to the last node standing.
	RecoverAdopt
)

// String names the policy for reports.
func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverRedial:
		return "redial"
	case RecoverAdopt:
		return "adopt"
	}
	return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
}

// RecoveryStats counts the recovery subsystem's work. Fetch re-routes and
// row migration happen on the coordinator; redials and per-peer health live
// in PeerHealth.
type RecoveryStats struct {
	// Adoptions counts survivor failovers (dead peers whose shard the
	// remaining nodes adopted).
	Adoptions int
	// MigratedRows / MigratedBytes count rows pushed to their new owners
	// during failover (repair/migration traffic, separate from scatter).
	MigratedRows, MigratedBytes int64
	// ResyncRows / ResyncBytes count rows re-pushed to a revived (re-dialed)
	// peer restoring its shard from the mirror.
	ResyncRows, ResyncBytes int64
	// Refetches counts rows whose failed gather fetch was re-routed to a
	// surviving owner and completed.
	Refetches int64
	// RecoveryWall is the wall clock spent inside failover and re-routing
	// (recovery latency; excludes the transport layer's own redial backoff).
	RecoveryWall time.Duration
}

// failoverState is one immutable ownership overlay: rows whose base owner
// is dead spread uniformly over the survivors, and dead is the service's one
// record of the nodes adopted away (DeadNodes). Swapped in atomically so the
// hot-path Owner read never takes a lock.
type failoverState struct {
	dead      []bool
	survivors []int32
}

func (st *failoverState) route(base int, row int32) int {
	if !st.dead[base] {
		return base
	}
	return int(st.survivors[uint32(row)%uint32(len(st.survivors))])
}

// failoverPart wraps the configured Partitioner with the failover overlay.
// Installed by SetRecovery(RecoverAdopt) before any table registers, so
// ownership reads are overlay-aware from the start and failover is a single
// atomic pointer swap — no lock ever appears on the Owner hot path.
type failoverPart struct {
	base  Partitioner
	state atomic.Pointer[failoverState]
}

func (f *failoverPart) Owner(table int, row int32) int {
	return f.state.Load().route(f.base.Owner(table, row), row)
}

// routed applies the overlay, when one is armed (f may be nil), to the owner
// the base placement gives a row — Owner for callers that already hold the
// base owner in an array.
//
//hotline:hotpath
func (f *failoverPart) routed(base int32, row int32) int {
	if f == nil {
		return int(base)
	}
	return f.state.Load().route(int(base), row)
}

func (f *failoverPart) ownerWith(st *failoverState, table int, row int32) int {
	return st.route(f.base.Owner(table, row), row)
}

func (f *failoverPart) Nodes() int   { return f.base.Nodes() }
func (f *failoverPart) Name() string { return f.base.Name() }

// SetRecovery arms the recovery policy. Like SetTransport it must run on a
// fresh service — before tables register — so ownership routing and the
// initial shard sync agree from the first row. RecoverRedial is the default
// and changes nothing; RecoverAdopt installs the failover overlay.
func (s *Service) SetRecovery(p RecoveryPolicy) {
	if s.anyRegistered() {
		panic("shard: SetRecovery after tables were registered; arm recovery on a fresh service")
	}
	if p == RecoverAdopt {
		fp := &failoverPart{base: s.part}
		fp.state.Store(&failoverState{dead: make([]bool, s.cfg.Nodes)})
		s.part, s.failPart = fp, fp
	}
}

// PeerHealth snapshots per-peer fabric health — the primary observability
// surface for a resilient fabric (nil on transports without a recovery
// layer). Ordered by node id.
func (s *Service) PeerHealth() []PeerHealth {
	if rt, ok := s.tr.(*ResilientTransport); ok {
		return rt.PeerHealth()
	}
	return nil
}

// RecoveryStats snapshots the recovery subsystem's counters.
func (s *Service) RecoveryStats() RecoveryStats {
	s.recStatsMu.Lock()
	defer s.recStatsMu.Unlock()
	return s.recStats
}

// DeadNodes returns the nodes adopted away by failover, in id order.
func (s *Service) DeadNodes() []int {
	if s.failPart == nil {
		return nil
	}
	var out []int
	for n, d := range s.failPart.state.Load().dead {
		if d {
			out = append(out, n)
		}
	}
	return out
}

// adoptable reports whether a fabric failure should trigger shard adoption:
// the adopt policy is armed and the error is dead-peer-class (not an
// application error, not a closing fabric).
func (s *Service) adoptable(err error) bool {
	return s.failPart != nil && errors.Is(err, ErrPeerDead) && !errors.Is(err, ErrClosed)
}

// recoverFetch re-routes one failed per-owner gather fetch (reroute); each
// re-fetched group counts as refetched rows.
func (s *Service) recoverFetch(table, owner int, rows []int32, st *Staging, cause error) error {
	return s.reroute(table, owner, rows, cause, func(o int, rs []int32) error {
		err := s.tr.Fetch(table, o, rs, st, nil)
		if err == nil {
			s.noteRefetch(int64(len(rs)))
		}
		return err
	})
}

// recoverPush re-routes one failed per-owner scatter push (reroute).
func (s *Service) recoverPush(table, owner int, rows []int32, src RowAt, cause error) error {
	return s.reroute(table, owner, rows, cause, func(o int, rs []int32) error {
		return s.tr.Push(table, o, rs, src)
	})
}

// reroute recovers one failed per-owner operation by shard adoption: fail
// the dead owner over, re-group the rows by their post-failover owners and
// run op again on each group. Both directions replay safely: fetches and
// pushes carry absolute mirror values. Bounded rounds cover cascading
// failures (a re-routed operation landing on another dying peer). Returns
// nil when every row landed — recovery succeeded and no fabric error is
// recorded.
func (s *Service) reroute(table, owner int, rows []int32, cause error, op func(owner int, rows []int32) error) error {
	if !s.adoptable(cause) {
		return cause
	}
	start := time.Now() //hotline:allow detorder measured recovery wall; never feeds math
	defer func() {
		s.noteRecoveryWall(time.Since(start)) //hotline:allow detorder measured recovery wall; never feeds math
	}()
	pending := rows
	deadOwner := owner
	err := cause
	for round := 0; round < s.cfg.Nodes; round++ {
		if ferr := s.failoverDead(deadOwner); ferr != nil {
			return fmt.Errorf("failover of node %d: %w", deadOwner, ferr)
		}
		// Re-group by post-failover owner. Recovery path: allocation is fine.
		byOwner := make([][]int32, s.cfg.Nodes)
		for _, r := range pending {
			o := s.Owner(table, r)
			byOwner[o] = append(byOwner[o], r)
		}
		pending = pending[:0:0]
		err = nil
		for o, rs := range byOwner {
			if len(rs) == 0 {
				continue
			}
			if ferr := op(o, rs); ferr != nil {
				if !s.adoptable(ferr) {
					return ferr
				}
				pending = append(pending, rs...)
				deadOwner, err = o, ferr
			}
		}
		if len(pending) == 0 {
			return nil
		}
	}
	return err
}

// failoverDead fails one unrecoverable peer over to the survivors:
// recompute the ownership overlay without it, push every row that moves to
// its new owner (current mirror bits — the authoritative values), and only
// then swap the overlay in, so a concurrent plan can never route a fetch to
// a node that does not hold the row yet. Single-flight and idempotent: a
// second caller for the same peer finds it already failed over and returns
// nil. Commit is all-or-nothing — a migration push failure leaves the old
// overlay in place (the caller's bounded rounds will fail the pushed-to
// peer over too and re-enter). Adoption cascades until one node remains;
// failing the last one over is an ErrPeerDead.
func (s *Service) failoverDead(dead int) error {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	oldState := s.failPart.state.Load()
	if oldState.dead[dead] {
		return nil
	}
	newDead := slices.Clone(oldState.dead)
	newDead[dead] = true
	var survivors []int32
	for n, d := range newDead {
		if !d {
			survivors = append(survivors, int32(n))
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("%w: node %d was the last node standing", ErrPeerDead, dead)
	}
	newState := &failoverState{dead: newDead, survivors: survivors}

	// Migrate before swapping: every row whose owner changes is pushed to
	// its new owner first, so the overlay only ever routes to nodes that
	// hold the row.
	var migRows, migBytes int64
	for table, t := range s.registered() {
		byOwner := make([][]int32, s.cfg.Nodes)
		for r := 0; r < t.rows; r++ {
			row := int32(r)
			oldO := s.failPart.ownerWith(oldState, table, row)
			newO := s.failPart.ownerWith(newState, table, row)
			if oldO != newO {
				byOwner[newO] = append(byOwner[newO], row)
			}
		}
		for o, rs := range byOwner {
			if len(rs) == 0 {
				continue
			}
			if err := s.tr.Push(table, o, rs, t.src); err != nil {
				return fmt.Errorf("migrating %d rows of table %d to node %d: %w", len(rs), table, o, err)
			}
			migRows += int64(len(rs))
			migBytes += int64(len(rs)) * int64(t.dim) * 4
		}
	}

	s.failPart.state.Store(newState)
	s.recStatsMu.Lock()
	s.recStats.Adoptions++
	s.recStats.MigratedRows += migRows
	s.recStats.MigratedBytes += migBytes
	s.recStatsMu.Unlock()
	return nil
}

// resyncOwner restores a revived peer's shard from the coordinator mirror:
// every row the peer currently owns is pushed with its authoritative bits.
// Wired into the ResilientTransport by SetTransport; runs under the
// transport's per-peer write lock (no fetch can observe the half-restored
// store) and pushes through the direct inner transport so it cannot recurse
// into the retry layer.
func (s *Service) resyncOwner(owner int, direct Transport) error {
	var rrows, rbytes int64
	for table, t := range s.registered() {
		var rows []int32
		for r := 0; r < t.rows; r++ {
			if s.Owner(table, int32(r)) == owner {
				rows = append(rows, int32(r))
			}
		}
		if len(rows) == 0 {
			continue
		}
		if err := direct.Push(table, owner, rows, t.src); err != nil {
			return fmt.Errorf("resync of table %d (%d rows) to node %d: %w", table, len(rows), owner, err)
		}
		rrows += int64(len(rows))
		rbytes += int64(len(rows)) * int64(t.dim) * 4
	}
	s.recStatsMu.Lock()
	s.recStats.ResyncRows += rrows
	s.recStats.ResyncBytes += rbytes
	s.recStatsMu.Unlock()
	return nil
}

func (s *Service) noteRefetch(rows int64) {
	s.recStatsMu.Lock()
	s.recStats.Refetches += rows
	s.recStatsMu.Unlock()
}

func (s *Service) noteRecoveryWall(d time.Duration) {
	s.recStatsMu.Lock()
	s.recStats.RecoveryWall += d
	s.recStatsMu.Unlock()
}
