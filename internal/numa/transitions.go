package numa

import (
	"numasim/internal/simtrace"
)

// Transitions is the page-consistency protocol's legal state-transition
// relation — the one place the shape of the paper's Tables 1 and 2 (plus
// the §4.4 remote extension) is written down. Rows are source states;
// each row lists every state the protocol may move the page to:
//
//   - read-only pages may gain a writer (local or global), be placed at a
//     home processor, or stay read-only while replicas churn;
//   - local-writable pages may be demoted to read-only, pinned global,
//     re-owned by another writer, or placed at a home;
//   - global-writable (pinned) pages leave only via a defrost sweep, an
//     eviction, or a remote placement — never to another pinned state;
//   - remote pages only ever revert to read-only (demotion syncs the home
//     copy back before any other transition can happen).
//
// setState checks the relation at simulation time; the numalint
// statemachine analyzer checks statically that every transition is routed
// through setState with a named state, and that this table stays total.
//
//numalint:transitions
var Transitions = map[State][]State{
	ReadOnly:       {ReadOnly, LocalWritable, GlobalWritable, Remote},
	LocalWritable:  {ReadOnly, LocalWritable, GlobalWritable, Remote},
	GlobalWritable: {ReadOnly, LocalWritable, Remote},
	Remote:         {ReadOnly},
}

// setState moves the page to next, enforcing Transitions. It is the only
// writer of Page.state after construction (statically enforced by the
// numalint statemachine analyzer).
//
//numalint:stateguard
func (p *Page) setState(next State) {
	for _, s := range Transitions[p.state] {
		if s == next {
			if bus := p.mgr.bus; bus.Enabled() && next != p.state {
				// setState has no thread at hand; the page's last-request
				// stamp is the best deterministic approximation of "now".
				bus.Emit(simtrace.Event{
					Kind: simtrace.KindStateChange, Proc: -1, Thread: -1,
					Time: int64(p.lastRequest), Page: p.id,
					Arg: int64(next), Arg2: int64(p.state), Label: next.String(),
				})
			}
			p.state = next
			return
		}
	}
	panic(p.mgr.violation(p, "numa: illegal page transition %v -> %v", p.state, next))
}
