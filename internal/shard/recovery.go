//hotline:typed-errors

// Service-level recovery: shard adoption when a peer is past saving.
//
// The ResilientTransport handles everything that can be fixed at the
// connection level — retry, re-dial, resync. This file handles the case it
// cannot: a peer declared unrecoverable while training still needs its rows.
// The coordinator's mirror is authoritative (all training math happens
// there; node stores are replicas fed absolute row values), so failover is a
// pure routing change: repartition the dead node's rows over the survivors,
// push their current bits from the mirror, install owner arrays that route
// them there, and re-route the failed fetches. The owner arrays are the only
// routing state.
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

// failoverState is one immutable adoption record: the nodes adopted away
// (DeadNodes) and the survivors, over which the rows whose placed owner is
// dead spread uniformly.
type failoverState struct {
	dead      []bool
	survivors []int32
}

// route returns the owner of a row whose placed owner is base: base while it
// is alive (always, when st is nil), else the survivor that adopted the row.
func (st *failoverState) route(base int, row int32) int {
	if st == nil || !st.dead[base] {
		return base
	}
	return int(st.survivors[uint32(row)%uint32(len(st.survivors))])
}

// placeOwners fills own with the owners of table's rows under the adoption
// record st: the configured placement, routed around the dead. Every entry is
// recomputed from the placement, so each adoption moves the same rows to the
// same survivors whatever the arrays held before. The one caller of
// Ownership.Owner.
func (s *Service) placeOwners(own []int32, table int, st *failoverState) {
	for r := range own {
		own[r] = int32(st.route(s.part.Owner(table, int32(r)), int32(r)))
	}
}

// SetRecovery arms the recovery policy. Like SetTransport it must run on a
// fresh service — before tables register — so ownership routing and the
// initial shard sync agree from the first row. RecoverRedial is the default
// and changes nothing; RecoverAdopt starts an adoption record with no node
// dead.
func (s *Service) SetRecovery(p RecoveryPolicy) {
	if s.anyRegistered() {
		panic("shard: SetRecovery after tables were registered; arm recovery on a fresh service")
	}
	if p == RecoverAdopt {
		s.fail.Store(&failoverState{dead: make([]bool, s.cfg.Nodes)})
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

// DeadNodes returns the nodes adopted away by failover, in id order.
func (s *Service) DeadNodes() []int {
	st := s.fail.Load()
	if st == nil {
		return nil
	}
	var out []int
	for n, d := range st.dead {
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
	return s.fail.Load() != nil && errors.Is(err, ErrPeerDead) && !errors.Is(err, ErrClosed)
}

// recoverFetch re-routes one failed per-owner gather fetch (reroute); each
// re-fetched group counts as refetched rows.
func (s *Service) recoverFetch(table, owner int, rows []int32, st *Staging, cause error) error {
	var refetched Stats
	err := s.reroute(table, owner, rows, cause, func(o int, rs []int32) error {
		err := s.tr.Fetch(table, o, rs, st, nil)
		if err == nil {
			refetched.Refetches += int64(len(rs))
		}
		return err
	})
	s.count(false, &refetched)
	return err
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
		s.count(false, &Stats{RecoveryWall: time.Since(start)}) //hotline:allow detorder measured recovery wall; never feeds math
	}()
	pending := rows
	deadOwner := owner
	err := cause
	for round := 0; round < s.cfg.Nodes; round++ {
		if ferr := s.failoverDead(deadOwner); ferr != nil {
			return fmt.Errorf("failover of node %d: %w", deadOwner, ferr)
		}
		// Re-group by post-failover owner. Recovery path: allocation is fine.
		own := s.owners(table)
		byOwner := make([][]int32, s.cfg.Nodes)
		for _, r := range pending {
			byOwner[own[r]] = append(byOwner[own[r]], r)
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

// failoverDead fails one unrecoverable peer over to the survivors: record it
// dead, push every row that moves to its new owner (current mirror bits — the
// authoritative values), and only then install fresh owner arrays for every
// table, so a concurrent plan can never route a fetch to a node that does not
// hold the row yet. Single-flight and idempotent: a second caller for the
// same peer finds it already failed over and returns nil. Commit is
// all-or-nothing — a migration push failure leaves the old record and arrays
// in place (the caller's bounded rounds will fail the pushed-to peer over too
// and re-enter). Adoption cascades until one node remains; failing the last
// one over is an ErrPeerDead.
func (s *Service) failoverDead(dead int) error {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	oldState := s.fail.Load()
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

	// Migrate before installing: every row whose owner changes is pushed to
	// its new owner first, so the arrays only ever route to nodes that hold
	// the row.
	var migRows, migBytes int64
	for table, t := range s.registered() {
		placed := make([]int32, len(t.owners))
		s.placeOwners(placed, table, newState)
		byOwner := make([][]int32, s.cfg.Nodes)
		for r, o := range placed {
			if o != t.owners[r] {
				byOwner[o] = append(byOwner[o], int32(r))
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
			migBytes += int64(len(rs)) * s.cfg.RowBytes
		}
	}

	s.mu.Lock()
	s.fail.Store(newState)
	for table, t := range s.tables {
		if t.owners != nil {
			own := make([]int32, len(t.owners))
			s.placeOwners(own, table, newState)
			s.tables[table].owners = own
		}
	}
	s.mu.Unlock()
	s.count(false, &Stats{Adoptions: 1, MigratedRows: migRows, MigratedBytes: migBytes})
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
		for r, o := range t.owners {
			if int(o) == owner {
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
		rbytes += int64(len(rows)) * s.cfg.RowBytes
	}
	s.count(false, &Stats{ResyncRows: rrows, ResyncBytes: rbytes})
	return nil
}
