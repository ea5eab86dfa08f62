package sched

import "numasim/internal/vm"

// Degraded-mode thread failover: when the health driver takes a node
// offline, its processors stop receiving new threads immediately (pick
// skips them) and the threads already bound there are moved off at their
// next quantum boundary — the same boundary the co-placement hints use —
// onto the least-loaded processor of the nearest surviving node. The
// masks are nil until the first FailNode, so a run with no failure
// schedule is byte-identical to one without this file.

// FailNode marks node and every processor homed on it dead. New threads
// and hint migrations avoid them; threads currently bound there fail
// over at their next quantum boundary.
func (s *Scheduler) FailNode(node int) {
	if node < 0 || node >= s.nnodes {
		return
	}
	if s.deadProc == nil {
		s.deadProc = make([]bool, len(s.live))
		s.deadNode = make([]bool, s.nnodes)
	}
	if s.deadNode[node] {
		return
	}
	s.deadNode[node] = true
	for _, p := range s.kernel.Machine().NodeProcs(node) {
		s.deadProc[p] = true
	}
}

// ReviveNode returns a dead node's processors to service. Threads do
// not move back on their own; new spawns and migrations may use the
// node again.
func (s *Scheduler) ReviveNode(node int) {
	if s.deadNode == nil || node < 0 || node >= len(s.deadNode) || !s.deadNode[node] {
		return
	}
	s.deadNode[node] = false
	for _, p := range s.kernel.Machine().NodeProcs(node) {
		s.deadProc[p] = false
	}
}

// failover moves the context's thread off its dead processor onto the
// least-loaded processor of the nearest surviving node (distance-ranked
// from the dead processor's home, ties to the lowest node id). With
// every node dead the thread stays put — a degenerate schedule the
// harness never produces.
func (s *Scheduler) failover(c *vm.Context) {
	machine := s.kernel.Machine()
	home := machine.Home(c.Proc())
	for _, cand := range machine.Spec().Ranked(home) {
		if s.deadNode[cand] || len(machine.NodeProcs(cand)) == 0 {
			continue
		}
		s.stats.Failovers++
		s.migrate(c, cand)
		return
	}
}
