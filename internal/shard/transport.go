//hotline:typed-errors

package shard

import (
	"errors"
	"fmt"
	"time"
)

// Fabric errors. Transport implementations wrap these so callers can test
// failure classes with errors.Is regardless of which peer or frame failed.
var (
	// ErrClosed reports an operation on a closed transport or service.
	ErrClosed = errors.New("shard: transport closed")
	// ErrPeerDead reports a peer connection that failed mid-operation (dial
	// refused, I/O error, timeout, or mid-frame EOF). Once a peer is dead
	// every later operation against it fails fast with the same error.
	ErrPeerDead = errors.New("shard: peer dead")
	// ErrUnknownRow reports a fetch of a row the owner node never received.
	ErrUnknownRow = errors.New("shard: unknown row")
	// ErrFabricConfig reports an invalid fabric configuration (unknown
	// network, empty address list) before any peer is dialled.
	ErrFabricConfig = errors.New("shard: invalid fabric config")
)

// RowAt returns the authoritative payload of one row from the coordinator's
// mirror (e.g. ShardedBag.RowView). A table declares it once, to
// RegisterTable, and it is the only row source there is: scatter pushes, the
// initial shard sync, migration and resync push from it, and the in-proc
// fetch, the warm-tier fill and the degraded serve read copy from it. The
// returned slice is read, never retained.
type RowAt func(row int32) []float32

// FetchFunc is the type of Transport.Fetch's last parameter, which no
// implementation reads: every caller in this module passes nil. It stays in
// the signature because implementations outside the package (the benchmark
// harness's traced transport) are written against it.
type FetchFunc func(row int32, dst []float32)

// Transport moves embedding rows between the coordinator and the shard
// nodes: per-owner gather fetch lists stream owner-resident rows into
// staging buffers, pre-reduced scatter pushes deliver updated rows back to
// their owners, and the serve-side read path reuses the gather direction.
// The Service times every call (Stats.GatherWall / Stats.ScatterWall), so a
// transport's implementation cost is what the fabric measurement reports.
//
// Two implementations ship: the in-proc fast path (NewInproc), which copies
// fetched rows straight from the row view the table registered, and the
// socket fabric (DialFabric), where each owner is a real OS process reached
// over a length-prefixed binary framing on unix or TCP sockets.
//
// Implementations must be safe for concurrent use: gather drainer
// goroutines, the training path and the serve path all issue operations
// concurrently.
type Transport interface {
	// Name identifies the transport in reports ("inproc", "unix", "tcp").
	Name() string
	// Multiproc reports whether rows cross a process boundary. The service
	// skips scatter pushes and the initial shard sync on single-address-
	// space transports (the mirror IS the owner storage).
	Multiproc() bool
	// Fetch copies the listed owner-resident rows of one table into their
	// staging slots (st.Lookup(row) locates each destination). The in-proc
	// fast path reads them from the table's registered row view, socket
	// transports ask the owner process. The last parameter is unused and
	// always nil (see FetchFunc).
	Fetch(table, owner int, rows []int32, st *Staging, _ FetchFunc) error
	// Push delivers authoritative row payloads of one table to their owner
	// (the pre-reduced scatter, and the initial shard sync). src yields
	// each row's current bits and may reuse one buffer across calls. A nil
	// return means the push is ordered ahead of every later operation on
	// this transport — a later Fetch of those rows from that owner observes
	// the pushed bits — not that the owner has applied it yet: a transport
	// may still be delivering it, and reports a push it then loses as the
	// failure of a later operation on that owner, or of Close.
	Push(table, owner int, rows []int32, src RowAt) error
	// Close releases the transport, first settling what earlier pushes left
	// undelivered; it returns the first such failure. Idempotent.
	Close() error
}

// inproc is the single-address-space fast path: a fetch copies each row
// from the row view its table registered (the window carries it), and
// pushes are no-ops (the mirror is the owner storage). Stateless and always
// open.
type inproc struct{}

// NewInproc returns the in-proc fast-path transport (the default of every
// Service).
func NewInproc() Transport { return inproc{} }

func (inproc) Name() string    { return "inproc" }
func (inproc) Multiproc() bool { return false }

//hotline:hotpath
func (inproc) Fetch(_, _ int, rows []int32, st *Staging, _ FetchFunc) error {
	for _, r := range rows {
		if v, ok := st.Lookup(r); ok {
			copy(v, st.src(r))
		}
	}
	return nil
}

func (inproc) Push(int, int, []int32, RowAt) error { return nil }
func (inproc) Close() error                        { return nil }

// SetTransport installs the fabric transport rows travel over; the default
// is the in-proc fast path. Call it on a fresh service — before any table
// is registered (ShardBag / Model.ShardEmbeddings) and before training — so
// the initial shard sync reaches the right fabric.
func (s *Service) SetTransport(tr Transport) {
	if tr == nil {
		tr = NewInproc()
	}
	if s.anyRegistered() {
		panic("shard: SetTransport after tables were registered; install the transport on a fresh service")
	}
	s.tr = tr
	s.multiproc = tr.Multiproc()
	if rt, ok := tr.(*ResilientTransport); ok {
		// A revived (re-dialed) peer starts with an empty store;
		// the service restores its shard from the authoritative mirror.
		rt.resync = s.resyncOwner
	}
}

// Multiproc reports whether rows cross a process boundary (socket fabric).
func (s *Service) Multiproc() bool { return s.multiproc }

// RegisterTable declares one sharded table of rows rows, each
// Config.Dim() wide, and its row source to the service; a table enters the
// service no other way, and a walk over a table never registered panics. It
// sizes the table's routing state once — the dense owner array (the
// placement walked once, around any node an adoption has taken out), every
// device cache's index, the dedup stamps — so the accounting walks never
// grow anything. Windows planned over the table copy their rows from src:
// the in-proc fetch, the warm-tier round trip and the degraded serve read
// all read it, and a multi-process fabric pushes from it, so src may be nil
// only on an in-proc service that never fills a window (an accounting
// replay). On the in-proc transport that is all; on a
// multi-process fabric it bulk-pushes every row to its owner node process
// (the initial shard sync), so worker stores serve fetches from exactly the
// bits the coordinator's mirror — the table src reads — holds. ShardBag
// calls this; shadows share the primary's registration.
func (s *Service) RegisterTable(table, rows int, src RowAt) {
	own := make([]int32, rows)
	s.mu.Lock()
	s.placeOwners(own, table, s.fail.Load())
	for table >= len(s.tables) {
		s.tables = append(s.tables, tableState{})
	}
	s.tables[table] = tableState{owners: own, src: src}
	for _, c := range s.caches {
		c.SizeTable(table, rows)
	}
	if need := rows * s.cfg.Nodes; need > len(s.stamps) {
		// No walk is in flight under s.mu, so no stamp needs keeping.
		s.stamps = make([]uint8, need)
	}
	s.mu.Unlock()
	if !s.multiproc {
		return
	}
	// Setup path: allocation is fine, and the sync is deliberately NOT
	// counted as scatter wall time (it replicates initial state, it is not
	// training traffic).
	byOwner := make([][]int32, s.cfg.Nodes)
	for r, o := range own {
		byOwner[o] = append(byOwner[o], int32(r))
	}
	for o, rs := range byOwner {
		if len(rs) == 0 {
			continue
		}
		err := s.tr.Push(table, o, rs, src)
		if err != nil {
			err = s.recoverPush(table, o, rs, src, err)
		}
		if err != nil {
			s.noteFabricErr(fmt.Errorf("initial sync of table %d to node %d: %w", table, o, err))
		}
	}
}

// PushUpdates mirrors a sparse update's new row values to their owner
// processes — the pre-reduced scatter: each updated row travels once, to
// the node that owns it, after local pre-reduction already merged every
// contribution. A no-op on single-address-space transports (the update
// already landed in the owner storage). The push is ordered, not
// synchronous: it returns once the transport has it on the owner's stream,
// ahead of every later fetch from that owner, so a later fetch of an updated
// row always observes the new bits. Stats.ScatterWall accumulates what the
// trainer waited — on the socket fabric, the encode and the write; the wait
// for the owner's ack is paid by the next fetch from that owner and lands in
// Stats.GatherWall.
func (s *Service) PushUpdates(table int, rows []int32, src RowAt) {
	if !s.multiproc || len(rows) == 0 {
		return
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	if cap(s.pushGroups) < s.cfg.Nodes {
		s.pushGroups = make([][]int32, s.cfg.Nodes)
	}
	groups := s.pushGroups[:s.cfg.Nodes]
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	own := s.owners(table)
	for _, r := range rows {
		groups[own[r]] = append(groups[own[r]], r)
	}
	s.pushGroups = groups
	var st Stats
	for o, rs := range groups {
		if len(rs) == 0 {
			continue
		}
		start := time.Now() //hotline:allow detorder measured scatter wall; never feeds math
		err := s.tr.Push(table, o, rs, src)
		st.ScatterWall += time.Since(start) //hotline:allow detorder measured scatter wall; never feeds math
		if err != nil {
			err = s.recoverPush(table, o, rs, src, err)
		}
		if err != nil {
			s.noteFabricErr(fmt.Errorf("scatter push of table %d to node %d: %w", table, o, err))
		}
	}
	s.count(false, &st)
}

// transportFetch routes one per-owner fetch list through the transport and
// returns the wall time the transport call took, for the caller to count. A
// failure first offers itself to shard adoption (recoverFetch re-routes the
// rows to surviving owners); only an unrecovered failure is recorded as a
// fabric error.
func (s *Service) transportFetch(table, owner int, rows []int32, st *Staging) (time.Duration, error) {
	start := time.Now() //hotline:allow detorder measured gather wall; never feeds math
	err := s.tr.Fetch(table, owner, rows, st, nil)
	wall := time.Since(start) //hotline:allow detorder measured gather wall; never feeds math
	if err != nil {
		err = s.recoverFetch(table, owner, rows, st, err)
	}
	if err != nil {
		s.noteFabricErr(fmt.Errorf("gather fetch of table %d from node %d: %w", table, owner, err))
	}
	return wall, err
}

// ServeGatherSync fills a serve window synchronously through the transport
// (the read path of a multi-process fabric); the wall time books into the
// serve-side counters (ServeSnapshot().GatherWall). Release the window once
// its rows are consumed.
//
// On a resilient fabric the serve path degrades instead of erroring: each
// per-owner fetch gets exactly one attempt (FetchFast — at most an
// opportunistic re-dial probe, never a backoff sleep), and an unreachable
// owner's rows are answered from the coordinator's warmed mirror — the
// table's registered row view, copied as the in-proc fetch copies it —
// counted as StaleServeRows in the serve snapshot. When the peer returns,
// the probe reconnects it and the counter stops — serving un-degrades by
// itself. The call's walls and stale rows fold into the serve block once.
func (s *Service) ServeGatherSync(w *Staging) {
	w.fillQuant()
	rt, degrade := s.tr.(*ResilientTransport)
	var st Stats
	for owner, rows := range w.perOwner {
		if len(rows) == 0 {
			continue
		}
		if degrade {
			start := time.Now() //hotline:allow detorder measured serve wall; never feeds math
			err := rt.FetchFast(w.table, owner, rows, w)
			st.GatherWall += time.Since(start) //hotline:allow detorder measured serve wall; never feeds math
			if err != nil {
				inproc{}.Fetch(w.table, owner, rows, w, nil)
				st.StaleServeRows += int64(len(rows))
			}
			continue
		}
		wall, _ := s.transportFetch(w.table, owner, rows, w)
		st.GatherWall += wall
	}
	s.count(true, &st)
}

// maxAggregatedFabricErrs bounds how many distinct failures FabricErr
// keeps; a long outage produces thousands of identical cascade errors and
// aggregating them all would only bury the actionable ones.
const maxAggregatedFabricErrs = 8

// noteFabricErr aggregates fabric errors: every recorded failure stays
// classifiable (errors.Is walks the join), the first maxAggregatedFabricErrs
// keep their full text, and later ones only count.
func (s *Service) noteFabricErr(err error) {
	s.errMu.Lock()
	switch {
	case s.fabricErr == nil:
		s.fabricErr = err
	case s.fabricErrN < maxAggregatedFabricErrs:
		s.fabricErr = errors.Join(s.fabricErr, err)
	}
	s.fabricErrN++
	s.errMu.Unlock()
}

// FabricErr returns the transport failures the service observed, aggregated
// (nil when the fabric is healthy — including runs where every failure was
// recovered by retry, re-dial or shard adoption; recovered operations are
// not errors). Fetch failures leave staged rows unfilled, so a non-nil
// fabric error voids any parity claim for the run; check it after training
// and after Close. Suppressed duplicates beyond the aggregation cap are
// reported by FabricErrCount.
func (s *Service) FabricErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.fabricErr
}

// FabricErrCount returns how many fabric errors were recorded in total
// (including those beyond the aggregation cap).
func (s *Service) FabricErrCount() int {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.fabricErrN
}

// Close releases the fabric: the gather engine's persistent drainer
// goroutines are retired (parked drainers wake and exit; windows already
// submitted still complete because consumers help drain in Await) and the
// transport is closed, which settles the scatter pushes still in flight: a
// failure there is returned and recorded as a fabric error. A hung peer
// cannot stall Close (see SocketTransport.Close). Idempotent and safe under
// concurrent callers —
// every call after the first returns the first call's result — and safe
// with prefetch windows still open: consuming them after Close works, only
// new asynchronous drains stop.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.gather.Close()
		if s.tr != nil {
			if err := s.tr.Close(); err != nil {
				// A push the fabric accepted and then lost: the run's node
				// stores ended behind the mirror, which FabricErr must say.
				s.closeErr = err
				s.noteFabricErr(fmt.Errorf("closing the fabric: %w", err))
			}
		}
	})
	return s.closeErr
}
