// The policy API beyond the core Policy interface, and the per-page
// heat counters the adaptive policies read.
//
// The manager asks a Policy one question per request (CachePolicy) and
// detects two optional capabilities, once, by type assertion in
// NewManager:
//
//   - ReconsideringPolicy (numa.go): the policy wants pinned pages
//     re-presented by the defrost sweep, at an interval the manager
//     reads once;
//   - ThreadAdvisor: the policy may advise the scheduler to migrate the
//     faulting thread toward the node holding the page's heat, a
//     channel the scheduler's side (ThreadMover) connects.
//
// A policy that wraps another (policy.Pragma, policy.CoPlace) forwards
// both, so the wrapped policy keeps its sweep and its advice.
//
// The decaying counters (heat, moveHeat, heatEpoch on the Page record)
// are kept on every request whatever the policy, so a policy reads them
// the same way bare or under a wrapper. They are pooled with the page
// record, so keeping them allocates nothing.
package numa

import (
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
)

// DefaultHeatEpoch is the decay period for the per-page access
// histograms and move-heat counters: every elapsed epoch halves every
// counter (a lazy right-shift applied on the page's next touch). 50ms
// matches the Reconsider policy's default sweep interval, so one epoch
// is roughly "one reconsideration window".
const DefaultHeatEpoch = 50 * sim.Millisecond

// heatCap saturates the decaying counters. With shift decay the
// counters cannot overflow in practice; the cap just bounds them
// defensively and keeps TotalHeat comfortably inside uint64.
const heatCap = 1 << 24

// ThreadAdvisor is a Policy that may steer threads as well as pages:
// after each request is resolved the manager asks the advisor whether
// the faulting thread would be better placed on another node, and
// forwards an affirmative answer to the scheduler as a migration hint
// (applied, if accepted, at the thread's next quantum boundary).
type ThreadAdvisor interface {
	Policy
	// AdviseThread may nominate a node for the faulting thread to
	// migrate to. spec is the machine's topology and node the thread's
	// home node; returning (target, true) with target != node proposes
	// the move. It runs on the protocol hot path: implementations must
	// not allocate.
	//
	//numalint:hotpath
	AdviseThread(pg *Page, spec *topology.Spec, node int) (int, bool)
}

// ThreadMover accepts thread-migration hints on the manager's behalf;
// sched.Scheduler implements it. MigrateHint reports whether the hint
// was accepted (recorded for the thread's next quantum boundary) or
// rejected (unknown thread, out-of-range node). It is called from the
// protocol hot path: implementations must not allocate.
type ThreadMover interface {
	//numalint:hotpath
	MigrateHint(th *sim.Thread, node int) bool
}

// SetThreadMover installs the co-placement channel: with a mover set
// and a ThreadAdvisor-capable policy bound, the manager forwards the
// policy's migration advice to the scheduler. Install before the
// simulation runs; nil disconnects the channel.
func (n *Manager) SetThreadMover(m ThreadMover) { n.mover = m }

// observeAccess decays the page's counters to the request's heat epoch
// and counts the request against node. Called from Access on every
// request, before the policy is consulted. Thread clocks interleave, so
// a request may come from a thread still in an earlier epoch: the
// manager's epoch only moves forward, and the page counts the request
// in its current epoch.
//
//numalint:hotpath
func (n *Manager) observeAccess(pg *Page, node int, now sim.Time) {
	e := uint32(now / n.heatEpoch)
	if e > n.curEpoch {
		n.curEpoch = e
	}
	pg.decayTo(e)
	if pg.heat[node] < heatCap {
		pg.heat[node]++
	}
}

// adviseThread runs the advisor capability for one resolved request and
// forwards its answer to the scheduler, emitting a KindSchedHint event
// with the scheduler's verdict. Called from Access only when both an
// advisor and a mover are bound.
//
//numalint:hotpath
func (n *Manager) adviseThread(th *sim.Thread, pg *Page, proc, node int) {
	target, ok := n.advisor.AdviseThread(pg, n.spec, node)
	if !ok || target == node {
		return
	}
	accepted := n.mover.MigrateHint(th, target)
	if n.bus.Enabled() {
		verdict := int64(0)
		if accepted {
			verdict = 1
		}
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindSchedHint, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.id,
			Arg: int64(target), Arg2: verdict, Label: n.policyName,
		})
	}
}

// decayTo applies the lazy shift decay: every epoch elapsed since the
// page was last touched halves every counter. An epoch at or before the
// page's own leaves the counters as they are.
//
//numalint:hotpath
func (p *Page) decayTo(epoch uint32) {
	if epoch <= p.heatEpoch {
		return
	}
	shift := epoch - p.heatEpoch
	p.heatEpoch = epoch
	if shift >= 32 {
		for i := range p.heat {
			p.heat[i] = 0
		}
		p.moveHeat = 0
		return
	}
	for i := range p.heat {
		p.heat[i] >>= shift
	}
	p.moveHeat >>= shift
}

// NodeHeat returns the page's decayed access count for node.
//
//numalint:hotpath
func (p *Page) NodeHeat(node int) uint32 { return p.heat[node] }

// MoveHeat returns the page's decayed ownership-transfer count: the
// adaptive analogue of Moves, which never decays.
//
//numalint:hotpath
func (p *Page) MoveHeat() uint32 { return p.moveHeat }

// TotalHeat sums the decayed access counts across all nodes.
//
//numalint:hotpath
func (p *Page) TotalHeat() uint64 {
	var t uint64
	for _, h := range p.heat {
		t += uint64(h)
	}
	return t
}

// HotNode returns the node with the highest decayed access count (ties
// to the lowest node id), or -1 when every counter is zero.
//
//numalint:hotpath
func (p *Page) HotNode() int {
	best, node := uint32(0), -1
	for i, h := range p.heat {
		if h > best {
			best, node = h, i
		}
	}
	return node
}

// PolicyWord returns the page's 64-bit policy scratch word: opaque
// per-page state for adaptive policies (the bandit packs its per-arm
// value estimates here), zeroed when the page record is created or
// recycled.
//
//numalint:hotpath
func (p *Page) PolicyWord() uint64 { return p.pword }

// SetPolicyWord stores the page's policy scratch word.
//
//numalint:hotpath
func (p *Page) SetPolicyWord(w uint64) { p.pword = w }
