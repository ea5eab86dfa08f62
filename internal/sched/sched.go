// Package sched models the processor scheduler the paper modified for
// NUMA (§4.7): each newly created thread is bound to a processor —
// assigned sequentially by processor number, skipping processors that are
// busy unless all are busy — and executes everything there (processor
// affinity).
//
// The original Mach scheduler kept a single queue of runnable processes
// from which available processors picked, so "processes moved between
// processors far too often"; NoAffinity mode reproduces that behaviour for
// the affinity ablation (E11) by migrating a thread to the next processor
// at every scheduling quantum.
package sched

import (
	"fmt"
	"strings"

	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/vm"
)

// Mode selects the scheduling discipline.
type Mode int

// Scheduling modes.
const (
	// Affinity is the paper's modified scheduler: bind at creation, stay.
	Affinity Mode = iota
	// NoAffinity approximates the original Mach single-queue scheduler:
	// threads hop processors at quantum boundaries.
	NoAffinity
)

func (m Mode) String() string {
	if m == Affinity {
		return "affinity"
	}
	return "no-affinity"
}

// ParseMode parses a scheduler name from the command line. "affinity"
// selects the paper's modified scheduler; "noaffinity" (or "no-affinity")
// the original single-queue behavior. Matching is case-insensitive.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "affinity":
		return Affinity, nil
	case "noaffinity", "no-affinity":
		return NoAffinity, nil
	}
	return Affinity, fmt.Errorf("unknown scheduler %q (want affinity or noaffinity)", s)
}

// Stats counts scheduler events: thread spawns, the migration-hint
// traffic of the co-placement channel (numa.ThreadMover) and failovers.
type Stats struct {
	Spawns        uint64
	HintsAccepted uint64
	HintsRejected uint64
	Migrations    uint64 // accepted hints applied at quantum boundaries
	Failovers     uint64 // threads moved off dead processors at quantum boundaries
}

// Scheduler assigns simulated threads to processors.
type Scheduler struct {
	kernel *vm.Kernel
	mode   Mode
	nnodes int   // the machine's node count, bounding hint and failure nodes
	live   []int // live thread count per processor
	next   int   // next processor for sequential assignment

	// Migration-hint state (the numa.ThreadMover side of the
	// co-placement channel): hint holds the advised node per thread id
	// (-1 none), homeNode the node each thread is currently bound to
	// (-1 unknown). Both are grown at Spawn, so the hot-path MigrateHint
	// only indexes.
	hint     []int32
	homeNode []int32
	stats    Stats

	// Degraded-mode state (see failover.go): deadProc/deadNode mask
	// processors and nodes taken offline by a failure schedule. Both are
	// nil until the first FailNode, so the healthy paths pay one nil
	// check and the scheduler stays byte-identical without a schedule.
	deadProc []bool
	deadNode []bool
}

// New creates a scheduler for the kernel's machine.
func New(k *vm.Kernel, mode Mode) *Scheduler {
	return &Scheduler{
		kernel: k,
		mode:   mode,
		nnodes: k.Machine().NNodes(),
		live:   make([]int, k.Machine().NProc()),
	}
}

// pick assigns a processor for a new thread: sequentially by number,
// skipping busy processors unless all are busy (§4.7). Dead processors
// are never picked unless every processor is dead (a degenerate
// schedule); without a failure schedule the walk is unchanged.
func (s *Scheduler) pick() int {
	n := len(s.live)
	for i := 0; i < n; i++ {
		p := (s.next + i) % n
		if s.deadProc != nil && s.deadProc[p] {
			continue
		}
		if s.live[p] == 0 {
			s.next = (p + 1) % n
			return p
		}
	}
	for i := 0; i < n; i++ {
		p := (s.next + i) % n
		if s.deadProc == nil || !s.deadProc[p] {
			s.next = (p + 1) % n
			return p
		}
	}
	p := s.next % n
	s.next = (p + 1) % n
	return p
}

// Spawn creates a simulated thread running fn in task, bound to a
// processor chosen by the affinity rule. start is the thread's initial
// virtual time (pass the spawner's clock when forking from a running
// thread, 0 at program start).
func (s *Scheduler) Spawn(name string, task *vm.Task, start sim.Time, fn func(*vm.Context)) *sim.Thread {
	proc := s.pick()
	s.live[proc]++
	th := s.kernel.Machine().Engine().Spawn(name, start, func(th *sim.Thread) {
		c := vm.NewContext(s.kernel, task, th, proc)
		// migrate and hop move the count with the thread, so it leaves
		// the processor it ends on.
		defer func() { s.live[c.Proc()]-- }()
		if s.mode == NoAffinity {
			c.OnQuantum = s.hop
		} else {
			// The affinity scheduler honours migration hints at quantum
			// boundaries; with no hint pending the hook is exactly the
			// default quantum yield.
			c.OnQuantum = s.applyHint
		}
		fn(c)
	})
	s.track(th, s.kernel.Machine().Home(proc))
	if bus := s.kernel.Machine().Bus(); bus.Enabled() {
		bus.Emit(simtrace.Event{
			Kind: simtrace.KindSchedAssign, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(start), Page: -1, Label: name,
		})
	}
	return th
}

// track records a newly spawned thread's home node and sizes the hint
// tables so the hot-path MigrateHint never grows them.
func (s *Scheduler) track(th *sim.Thread, node int) {
	id := int(th.ID())
	for len(s.hint) <= id {
		s.hint = append(s.hint, -1)
		s.homeNode = append(s.homeNode, -1)
	}
	s.hint[id] = -1
	s.homeNode[id] = int32(node)
	s.stats.Spawns++
}

// hop migrates a thread to the next processor in round-robin order, the
// locality-destroying behaviour of a single global run queue. Dead
// processors are skipped.
func (s *Scheduler) hop(c *vm.Context) {
	n := s.kernel.Machine().NProc()
	next := (c.Proc() + 1) % n
	if s.deadProc != nil {
		for i := 0; i < n && s.deadProc[next]; i++ {
			next = (next + 1) % n
		}
	}
	s.live[c.Proc()]--
	s.live[next]++
	c.MigrateTo(next)
	c.Thread().Yield()
}

// MigrateHint records a request to rebind th to a processor homed on
// node, applied at the thread's next quantum boundary. It implements
// numa.ThreadMover: a ThreadAdvisor-capable policy reaches it through
// the manager's co-placement channel. Hints are accepted only under
// the affinity discipline (NoAffinity hops every quantum regardless)
// and only for threads this scheduler spawned; a later hint for the
// same thread replaces an unapplied earlier one. It runs on the
// protocol hot path and must not allocate.
//
//numalint:hotpath
func (s *Scheduler) MigrateHint(th *sim.Thread, node int) bool {
	id := int(th.ID())
	if s.mode != Affinity || node < 0 || node >= s.nnodes ||
		id >= len(s.hint) || s.homeNode[id] < 0 ||
		(s.deadNode != nil && s.deadNode[node]) {
		s.stats.HintsRejected++
		return false
	}
	if int(s.homeNode[id]) == node {
		// Already bound there: honour the hint by doing nothing.
		s.hint[id] = -1
	} else {
		s.hint[id] = int32(node)
	}
	s.stats.HintsAccepted++
	return true
}

// applyHint is the affinity scheduler's quantum hook: fail the thread
// over if its processor has died, apply a pending migration hint, then
// yield the processor as an unhooked quantum would. A hint accepted
// before its target node died is dropped, not applied.
func (s *Scheduler) applyHint(c *vm.Context) {
	if s.deadProc != nil && s.deadProc[c.Proc()] {
		s.failover(c)
	}
	id := int(c.Thread().ID())
	if id < len(s.hint) {
		if node := s.hint[id]; node >= 0 {
			s.hint[id] = -1
			if s.deadNode == nil || !s.deadNode[node] {
				s.migrate(c, int(node))
			}
		}
	}
	c.Thread().Yield()
}

// migrate rebinds the context's thread to the least-loaded processor
// homed on node (ties to the lowest processor number) and accounts the
// move. The thread travels to its pages — co-placement's complement to
// the protocol moving pages to threads — so no page traffic is charged
// here; the next faults simply land closer.
func (s *Scheduler) migrate(c *vm.Context, node int) {
	procs := s.kernel.Machine().NodeProcs(node)
	target := -1
	for _, p := range procs {
		if s.deadProc != nil && s.deadProc[p] {
			continue
		}
		if target < 0 || s.live[p] < s.live[target] {
			target = p
		}
	}
	if target < 0 {
		return
	}
	from := c.Proc()
	if target == from {
		return
	}
	s.homeNode[c.Thread().ID()] = int32(node)
	s.stats.Migrations++
	s.live[from]--
	s.live[target]++
	c.MigrateTo(target)
	if bus := s.kernel.Machine().Bus(); bus.Enabled() {
		bus.Emit(simtrace.Event{
			Kind: simtrace.KindSchedMigrate, Proc: int32(target), Thread: int32(c.Thread().ID()),
			Time: int64(c.Thread().Clock()), Page: -1,
			Arg: int64(node), Arg2: int64(from),
		})
	}
}

// Stats returns the scheduler's counters.
func (s *Scheduler) Stats() Stats { return s.stats }
