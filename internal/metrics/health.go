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
	"numasim/internal/topology"
)

// StartHealthDriver checks cfg's failure schedule against the machine's
// topology (CheckHealth), so a bad schedule fails before the simulation
// starts instead of mid-run, and spawns the driver thread that replays
// it. A nil error with no schedule means nothing was spawned. Call before
// the workload runs.
func StartHealthDriver(machine *ace.Machine, mgr *numa.Manager, cfg chaos.Config) error {
	if !cfg.HealthEnabled() {
		return nil
	}
	if err := cfg.ValidateHealth(); err != nil {
		return err
	}
	events := cfg.SortedHealth()
	if err := CheckHealth(machine.Spec(), events); err != nil {
		return err
	}
	machine.Engine().Spawn("chaos-health", 0, func(th *sim.Thread) {
		for _, ev := range events {
			if ev.At > th.Clock() {
				th.Idle(ev.At - th.Clock())
				th.Yield()
			}
			applyHealth(machine, mgr, th, ev)
		}
	})
	return nil
}

// CheckHealth checks a failure schedule against a topology: every node
// event must name one of its nodes, every link event one of its links.
func CheckHealth(spec *topology.Spec, events []chaos.HealthEvent) error {
	for _, ev := range events {
		switch ev.Kind {
		case chaos.NodeOffline, chaos.NodeOnline:
			if ev.Node >= spec.NNodes() {
				return fmt.Errorf("chaos: health event %q: machine has only %d nodes", ev, spec.NNodes())
			}
		default:
			if _, ok := spec.LinkIndex(ev.Link); !ok {
				return fmt.Errorf("chaos: health event %q: topology %s has no link %q", ev, spec.Name(), ev.Link)
			}
		}
	}
	return nil
}

// applyHealth fires one schedule entry. The NUMA manager's FailNode
// evacuates a failing node — the sync-and-migrate traffic still travels
// the healthy routes of a failing-but-not-yet-dead node — and then marks
// it down; ReviveNode marks a revived node up once it is found cold.
func applyHealth(machine *ace.Machine, mgr *numa.Manager, th *sim.Thread, ev chaos.HealthEvent) {
	topo := machine.Topo()
	bus := machine.Bus()
	link, _ := machine.Spec().LinkIndex(ev.Link)
	switch ev.Kind {
	case chaos.NodeOffline:
		evac := mgr.FailNode(th, ev.Node)
		if bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindNodeOffline, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: -1,
				Arg: int64(ev.Node), Arg2: int64(evac),
			})
		}
	case chaos.NodeOnline:
		mgr.ReviveNode(th, ev.Node)
		if bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindNodeOnline, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: -1, Arg: int64(ev.Node),
			})
		}
	case chaos.LinkSever:
		topo.SeverLink(link)
		emitLinkChange(bus, th, link, 0, "sever")
	case chaos.LinkDegrade:
		topo.DegradeLink(link, ev.Factor)
		emitLinkChange(bus, th, link, int64(ev.Factor), "degrade")
	case chaos.LinkRestore:
		topo.RestoreLink(link)
		emitLinkChange(bus, th, link, 1, "restore")
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
