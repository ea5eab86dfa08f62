package numa

import (
	"fmt"

	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// This file is the manager's online auditor: an incremental checker that
// validates the directory invariants after protocol actions, at a
// configurable sampling stride, and the typed-violation machinery every
// protocol-state panic in this package routes through. A violation
// carries the page, its state and the recent ring-buffer trace, so a
// failed run dies with forensics attached instead of a bare string.

// ProtocolViolationError reports a broken protocol invariant. It is the
// panic value for every protocol-state failure in this package; the sim
// engine wraps it (with %w) into the thread error, so callers can recover
// it through engine.Run with errors.As and mine it for forensics.
type ProtocolViolationError struct {
	Page  int64 // offending page id, -1 when no single page is implicated
	State State // the page's state at the time of the violation
	Msg   string
	// Trace holds the machine's recent trace events (oldest first) when a
	// forensic ring buffer was attached via EnableAudit, else nil.
	Trace []simtrace.Event
}

func (e *ProtocolViolationError) Error() string {
	s := e.Msg
	if e.Page >= 0 {
		s += fmt.Sprintf(" [page%d state=%v]", e.Page, e.State)
	}
	if len(e.Trace) > 0 {
		s += fmt.Sprintf(" (%d trace events captured)", len(e.Trace))
	}
	return s
}

// newViolation builds a typed violation, snapshotting the forensic ring.
// It is one of the two blessed panic arguments in this package (the
// numalint violation analyzer rejects any bare panic here).
func newViolation(ring *simtrace.RingSink, pg *Page, format string, args ...any) *ProtocolViolationError {
	page := int64(-1)
	var state State
	if pg != nil {
		page, state = pg.id, pg.state
	}
	var events []simtrace.Event
	if ring != nil {
		events = ring.Events()
	}
	return &ProtocolViolationError{Page: page, State: state, Msg: fmt.Sprintf(format, args...), Trace: events}
}

// violation builds a typed violation against this manager's forensic
// ring; pg may be nil when no single page is implicated. The bus is
// flushed first so a batching ring sink has the complete event stream
// before it is snapshotted.
func (n *Manager) violation(pg *Page, format string, args ...any) *ProtocolViolationError {
	n.bus.Flush()
	return newViolation(n.ring, pg, format, args...)
}

// auditSweepFactor spaces full-directory sweeps: one sweep per this many
// sampled page audits.
const auditSweepFactor = 256

// EnableAudit turns on the online auditor. After every protocol action
// the manager increments an operation counter; every stride-th operation
// audits the page just acted on, and every stride*256-th operation sweeps
// the whole directory (every live page plus the residency table). Stride
// 1 is the full audit used by tests and the fuzz suite; larger strides
// make sampled auditing near-free for long sweeps. Stride 0 disables
// checking but still records ring as the forensic trace attached to any
// violation raised by the protocol itself.
func (n *Manager) EnableAudit(stride int, ring *simtrace.RingSink) {
	n.auditStride = stride
	n.ring = ring
	if stride > 0 {
		n.auditSweepEvery = uint64(stride) * auditSweepFactor
	}
}

// maybeAudit runs the incremental audit according to the sampling stride.
// pg is the page the protocol just acted on.
//
//numalint:coldpath diagnostics: sampled invariant checking is opt-in via EnableAudit
func (n *Manager) maybeAudit(pg *Page) {
	if n.auditStride <= 0 {
		return
	}
	n.auditOps++
	if n.auditOps%uint64(n.auditStride) == 0 {
		if err := n.auditCheckPage(pg); err != nil {
			panic(n.violation(pg, "numa: audit: %v", err))
		}
	}
	if n.auditSweepEvery > 0 && n.auditOps%n.auditSweepEvery == 0 {
		if err := n.AuditAll(); err != nil {
			panic(n.violation(pg, "numa: audit sweep: %v", err))
		}
	}
}

// auditCheckPage validates one page's directory invariants: the
// structural checks of CheckInvariants (exactly one writable copy,
// replica sets consistent with the page state), every replica recorded in
// the residency table, every replica of a read-only page holding its
// global frame's contents, and pin monotonicity (a pin is only cleared by
// FreePage).
func (n *Manager) auditCheckPage(pg *Page) error {
	if err := n.CheckInvariants(pg); err != nil {
		return err
	}
	for p, c := range pg.copies {
		if c == nil {
			continue
		}
		if n.shards[p].resident[c.Index()] != pg {
			return fmt.Errorf("page%d copy on cpu%d frame %d is missing from the residency table",
				pg.id, p, c.Index())
		}
		if pg.state == ReadOnly && !c.Equal(pg.global) {
			return fmt.Errorf("page%d replica on node%d differs from its global frame", pg.id, p)
		}
		if n.offline != nil && n.offline[p] {
			return fmt.Errorf("page%d holds a copy on offline node%d", pg.id, p)
		}
	}
	if pg.pinSeen && !pg.pinned {
		return fmt.Errorf("page%d pin bit cleared outside FreePage", pg.id)
	}
	if pg.pinned {
		pg.pinSeen = true
	}
	// Heat-counter invariants (policyapi.go): the histogram is sized to
	// the machine and never runs ahead of the manager's decay epoch.
	if len(pg.heat) != len(n.shards) {
		return fmt.Errorf("page%d heat histogram has %d buckets, want %d", pg.id, len(pg.heat), len(n.shards))
	}
	if pg.heatEpoch > n.curEpoch {
		return fmt.Errorf("page%d heat epoch %d is ahead of the manager's epoch %d", pg.id, pg.heatEpoch, n.curEpoch)
	}
	return nil
}

// AuditAll audits the whole directory: every live page's invariants plus
// the residency table's consistency with the pages it indexes (no stale
// entries, and never more recorded copies than allocated frames — the
// residency ≤ LocalFrames budget). It returns the first violation found,
// or nil. The fuzz suite runs it after every operation; sampled runs
// reach it through the sweep stride.
func (n *Manager) AuditAll() error {
	if err := n.dir.forEach(n.auditCheckPage); err != nil {
		return err
	}
	for p := range n.shards {
		used := 0
		for i, pg := range n.shards[p].resident {
			if pg == nil {
				continue
			}
			used++
			c := pg.copies[p]
			if c == nil || c.Index() != i {
				return fmt.Errorf("stale residency entry: cpu%d frame %d records page%d, which holds no such copy",
					p, i, pg.id)
			}
		}
		pool := n.machine.Memory().Local(p)
		if alloc := pool.Size() - pool.Free(); used > alloc {
			return fmt.Errorf("cpu%d residency table records %d copies but only %d frames are allocated",
				p, used, alloc)
		}
		// Degraded-mode invariants: an offline node stays empty (no
		// residency, pool fully free) for the whole quarantine, and the
		// quarantine is monotonic — only ReviveNode may lift it (it clears
		// the auditor's shadow bit before the mask).
		if n.offline != nil {
			if n.offline[p] {
				n.offlineSeen[p] = true
				if used != 0 {
					return fmt.Errorf("offline node%d has %d resident copies", p, used)
				}
				if pool.Free() != pool.Size() {
					return fmt.Errorf("offline node%d pool holds %d allocated frames",
						p, pool.Size()-pool.Free())
				}
			} else if n.offlineSeen[p] {
				return fmt.Errorf("node%d came back online outside ReviveNode (quarantine is monotonic)", p)
			}
		}
	}
	return nil
}

// register adds a page to the dense live-page directory used by AuditAll
// and the state-dump summary.
func (n *Manager) register(pg *Page) {
	pg.mgr = n
	n.dir.add(pg)
}

// unregister removes a freed page from the directory; its slot's
// generation stamp is bumped so a stale handle cannot evict a later
// occupant.
func (n *Manager) unregister(pg *Page) {
	n.dir.remove(pg)
}

// DumpSection summarizes the directory for engine state dumps: live-page
// counts per state, pins, replicas, per-processor residency occupancy and
// the headline protocol counters. NewManager registers it with the
// machine's engine, so deadlock/stall/stop dumps and repro bundles always
// include the NUMA view.
func (n *Manager) DumpSection() sim.DumpSection {
	var byState [4]int
	live, pinned, replicas := 0, 0, 0
	_ = n.dir.forEach(func(pg *Page) error {
		live++
		if s := int(pg.state); s >= 0 && s < len(byState) {
			byState[s]++
		}
		if pg.pinned {
			pinned++
		}
		replicas += pg.NCopies()
		return nil
	})
	body := fmt.Sprintf("live pages: %d (read-only %d, local-writable %d, global-writable %d, remote %d); pinned %d; local replicas %d\n",
		live, byState[ReadOnly], byState[LocalWritable], byState[GlobalWritable], byState[Remote],
		pinned, replicas)
	for p := range n.shards {
		used := 0
		for _, pg := range n.shards[p].resident {
			if pg != nil {
				used++
			}
		}
		body += fmt.Sprintf("cpu%d local residency: %d/%d frames\n", p, used, len(n.shards[p].resident))
	}
	s := n.stats
	body += fmt.Sprintf("requests: %d reads, %d writes; syncs %d, flushes %d, copies %d, moves %d, pins %d, evictions %d, fallbacks %d\n",
		s.ReadRequests, s.WriteRequests, s.Syncs, s.Flushes, s.Copies, s.Moves, s.Pins,
		s.Evictions, s.LocalFallback)
	return sim.DumpSection{Title: "NUMA directory", Body: body}
}
