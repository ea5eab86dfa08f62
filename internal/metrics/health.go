package metrics

// The health driver: a simulated thread that replays a chaos failure
// schedule against a running machine in virtual time. Each event fires
// at its scheduled instant — the driver idles to the event time and
// yields, so every workload thread has run up to that point — and then
// applies it in one atomic (yield-free) step: a link event to the
// topology's link capacities and routes, a node event to the NUMA
// manager, which evacuates or revives the node and sets the topology's
// node mask, the one record of node health the scheduler also reads.
//
// The driver thread is spawned only when the schedule is non-empty;
// a run without one spawns nothing and stays byte-identical, thread ids
// included.

import (
	"fmt"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/numa"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// healthEvent is one schedule entry with its link name resolved to an
// index (-1 for node events) before the simulation starts, so a bad
// schedule fails fast instead of mid-run.
type healthEvent struct {
	ev   chaos.HealthEvent
	link int
}

// StartHealthDriver validates cfg's failure schedule against the
// machine's topology and spawns the driver thread that replays it. A
// nil error with no schedule means nothing was spawned. Call before the
// workload runs.
func StartHealthDriver(machine *ace.Machine, mgr *numa.Manager, cfg chaos.Config) error {
	if !cfg.HealthEnabled() {
		return nil
	}
	if err := cfg.ValidateHealth(); err != nil {
		return err
	}
	spec := machine.Spec()
	events := cfg.SortedHealth()
	resolved := make([]healthEvent, len(events))
	for i, ev := range events {
		r := healthEvent{ev: ev, link: -1}
		switch ev.Kind {
		case chaos.NodeOffline, chaos.NodeOnline:
			if ev.Node >= machine.NNodes() {
				return fmt.Errorf("chaos: health event %q: machine has only %d nodes", ev, machine.NNodes())
			}
		default:
			li, ok := spec.LinkIndex(ev.Link)
			if !ok {
				return fmt.Errorf("chaos: health event %q: topology %s has no link %q", ev, spec.Name(), ev.Link)
			}
			r.link = li
		}
		resolved[i] = r
	}
	machine.Engine().Spawn("chaos-health", 0, func(th *sim.Thread) {
		for _, r := range resolved {
			if r.ev.At > th.Clock() {
				th.Idle(r.ev.At - th.Clock())
				th.Yield()
			}
			applyHealth(machine, mgr, th, r)
		}
	})
	return nil
}

// applyHealth fires one schedule entry. The NUMA manager's FailNode
// evacuates a failing node — the sync-and-migrate traffic still travels
// the healthy routes of a failing-but-not-yet-dead node — and then marks
// it down; ReviveNode marks a revived node up once it is found cold.
func applyHealth(machine *ace.Machine, mgr *numa.Manager, th *sim.Thread, r healthEvent) {
	topo := machine.Topo()
	bus := machine.Bus()
	switch r.ev.Kind {
	case chaos.NodeOffline:
		evac := mgr.FailNode(th, r.ev.Node)
		if bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindNodeOffline, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: -1,
				Arg: int64(r.ev.Node), Arg2: int64(evac),
			})
		}
	case chaos.NodeOnline:
		mgr.ReviveNode(th, r.ev.Node)
		if bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindNodeOnline, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: -1, Arg: int64(r.ev.Node),
			})
		}
	case chaos.LinkSever:
		topo.SeverLink(r.link)
		emitLinkChange(bus, th, r.link, 0, "sever")
	case chaos.LinkDegrade:
		topo.DegradeLink(r.link, r.ev.Factor)
		emitLinkChange(bus, th, r.link, int64(r.ev.Factor), "degrade")
	case chaos.LinkRestore:
		topo.RestoreLink(r.link)
		emitLinkChange(bus, th, r.link, 1, "restore")
	}
}

func emitLinkChange(bus *simtrace.Bus, th *sim.Thread, link int, factor int64, label string) {
	if bus.Enabled() {
		bus.Emit(simtrace.Event{
			Kind: simtrace.KindLinkChange, Proc: -1, Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: -1,
			Arg: int64(link), Arg2: factor, Label: label,
		})
	}
}
