package sched

import "numasim/internal/vm"

// Degraded-mode thread failover: once the health driver has taken a node
// offline (the topology's node mask, set by the NUMA manager after it
// has evacuated the node), its processors stop receiving new threads
// (pick skips them) and the threads already bound there are moved off at
// their next quantum boundary — the same boundary the co-placement hints
// use — onto the least-loaded processor of the nearest surviving node.
// The mask is nil until the first health event, so a run with no failure
// schedule is byte-identical to one without this file.

// failover moves the context's thread off its dead processor onto the
// least-loaded processor of the nearest surviving node (distance-ranked
// from the dead processor's home, ties to the lowest node id). With
// every node dead the thread stays put — a degenerate schedule the
// harness never produces.
func (s *Scheduler) failover(c *vm.Context) {
	machine := s.kernel.Machine()
	home := machine.Home(c.Proc())
	for _, cand := range machine.Spec().Ranked(home) {
		if s.topo.NodeDown(cand) || len(machine.NodeProcs(cand)) == 0 {
			continue
		}
		s.stats.Failovers++
		s.migrate(c, cand)
		return
	}
}
