// Degraded-mode runtime health: a node health mask, per-link capacity
// overrides, and deterministic rerouting around severed links. All state
// here lives on the per-machine Topology, never on the shared Spec — a
// failure schedule degrades one machine without touching its siblings in
// a parallel sweep.
//
// The node mask is the machine's one record of which nodes are down. The
// NUMA manager sets it; the routes below, Nearest, the manager's
// quarantine and the scheduler's failover read it.
//
// The inertness contract: a Topology with no health mutations keeps
// degraded == false, allocates nothing, and ChargeTransfer's healthy path
// is byte-for-byte the PR 8 behaviour. Every degraded branch is guarded
// by the single bool.
package topology

import (
	"slices"

	"numasim/internal/sim"
)

// LinkIndex resolves a link name ("node0-node1") to its index, the
// link's position in LinkStats.
func (s *Spec) LinkIndex(name string) (int, bool) {
	for i, l := range s.links {
		if l.Name == name {
			return i, true
		}
	}
	return -1, false
}

// NodeDown reports whether node is offline. It indexes nothing until the
// first health mutation.
//
//numalint:hotpath
func (t *Topology) NodeDown(node int) bool {
	return t.nodeDown != nil && t.nodeDown[node]
}

// ProcDown reports whether processor proc's home node is offline. It
// returns on the nil mask before it looks up the home node: the
// scheduler asks at every quantum end.
//
//numalint:hotpath
func (t *Topology) ProcDown(proc int) bool {
	return t.nodeDown != nil && t.nodeDown[t.spec.homeOf[proc]]
}

// Nearest returns the up node nearest to node that ok accepts, or -1
// when ok accepts none. Candidates are tried, and ok called, in
// ascending SLIT distance from node, ties to the lowest id; node itself
// is never a candidate.
func (t *Topology) Nearest(node int, ok func(int) bool) int {
	for _, cand := range t.spec.ranked[node][1:] {
		if !t.NodeDown(cand) && ok(cand) {
			return cand
		}
	}
	return -1
}

// SetNodeHealth marks node offline (healthy == false) or back online.
// Taking a node down also takes down every link incident to it; routes
// recompute deterministically around the loss. Re-onlining restores the
// incident links unless they were independently severed.
func (t *Topology) SetNodeHealth(node int, healthy bool) {
	t.ensureDegraded()
	t.nodeDown[node] = !healthy
	t.refreshLinks()
}

// SeverLink makes link li unusable until RestoreLink. Routes recompute
// around it: mesh paths detour, fully connected pairs relay two-hop
// through the lowest-numbered healthy intermediate.
func (t *Topology) SeverLink(li int) {
	t.ensureDegraded()
	t.severed[li] = true
	t.refreshLinks()
}

// DegradeLink multiplies link li's per-byte service time by factor
// (factor >= 1; integer arithmetic keeps the model deterministic). The
// link stays routable — transfers just queue behind its slower drain.
func (t *Topology) DegradeLink(li, factor int) {
	t.ensureDegraded()
	if factor < 1 {
		factor = 1
	}
	t.perByte[li] = t.spec.links[li].PerByte * sim.Time(factor)
}

// RestoreLink undoes SeverLink and DegradeLink for link li.
func (t *Topology) RestoreLink(li int) {
	t.ensureDegraded()
	t.severed[li] = false
	t.perByte[li] = t.spec.links[li].PerByte
	t.refreshLinks()
}

// chargeDegraded routes one transfer over the runtime route with
// store-and-forward queueing: the transfer waits out each link's backlog
// in path order, its arrival at every hop delayed by the hops before it.
// The healthy path keeps the parallel-wait accounting (each link's
// backlog measured independently from the transfer's start time) for
// byte-identical goldens; under rerouting, where severed links funnel
// many node pairs through few survivors, the parallel sum counts a
// shared backlog once per link crossed and the thread clocks it feeds
// back into the link state diverge. Sequential traversal bounds the
// transfer's finish time by the worst backlog plus its own service.
//
//numalint:hotpath
func (t *Topology) chargeDegraded(now sim.Time, route []int, bytes int) sim.Time {
	var wait sim.Time
	cur := now
	for _, li := range route {
		ls := &t.links[li]
		service := sim.Time(bytes) * t.perByte[li]
		if ls.busyUntil > cur {
			d := ls.busyUntil - cur
			wait += d
			ls.waited += d
			cur = ls.busyUntil
		}
		ls.busyUntil = cur + service
		cur += service
		ls.xfers++
		ls.bytes += uint64(bytes)
		ls.service += service
	}
	return wait
}

// nextInterleave advances the interleaved-memory round-robin cursor to
// the next online node. With every node down it returns the cursor
// unmoved — a degenerate schedule the NUMA layer's evacuation protocol
// never produces. Called from ChargeTransfer only when degraded, so
// nodeDown is allocated.
func (t *Topology) nextInterleave() int {
	s := t.spec
	for i := 0; i < s.nnodes; i++ {
		n := t.rr
		t.rr++
		if t.rr == s.nnodes {
			t.rr = 0
		}
		if !t.nodeDown[n] {
			return n
		}
	}
	return t.rr
}

// ensureDegraded lazily sets up the runtime health and capacity tables
// on the first health mutation; the runtime routes start as the spec's.
func (t *Topology) ensureDegraded() {
	if t.degraded {
		return
	}
	t.degraded = true
	s := t.spec
	t.nodeDown = make([]bool, s.nnodes)
	t.severed = make([]bool, len(s.links))
	t.linkDown = make([]bool, len(s.links))
	t.perByte = make([]sim.Time, len(s.links))
	for i, l := range s.links {
		t.perByte[i] = l.PerByte
	}
	t.routes = s.routes
}

// refreshLinks re-derives the effective link-down mask from the severed
// flags and the node mask, then every route around the loss. Uncontended
// specs model no interconnect: there are no routes to reroute, and
// health changes only gate placement.
func (t *Topology) refreshLinks() {
	s := t.spec
	if len(s.links) == 0 {
		return
	}
	for i, l := range s.links {
		t.linkDown[i] = t.severed[i] || t.nodeDown[l.A] || t.nodeDown[l.B]
	}
	t.routes = s.routeTable(t.linkDown)
}

// routeTable derives every ordered node pair's route from the links:
// the healthy table when nothing is down, the runtime table around the
// links in linkDown otherwise (every link of a down node is in it). A
// route is the fewest hops from a to b, found by a breadth-first search
// from a that expands each node's links in ascending index order, so of
// the shortest paths it always takes the one through the lowest-numbered
// links. A route equal to the spec's is the spec's own slice, so a
// runtime table shares every route a failure leaves intact. Pairs with no
// path (a down endpoint has none) route nil, paying only the base
// latency — the partition is visible in LinkStats as missing traffic,
// and the NUMA layer never places memory across it because the dead
// nodes are evacuated.
func (s *Spec) routeTable(linkDown []bool) [][]int {
	n := s.nnodes
	table := make([][]int, n*n)
	prev := make([]int, n)  // node the search reached each node from, -1 = unreached
	via := make([]int, n)   // link it crossed to get there
	hops := make([]int, n)  // route length from the source
	queue := make([]int, n) // breadth-first order; queue[:tail] are reached
	for a := 0; a < n; a++ {
		for i := range prev {
			prev[i] = -1
		}
		prev[a], hops[a], queue[0] = a, 0, a
		tail := 1
		for head := 0; head < tail; head++ {
			cur := queue[head]
			for li, l := range s.links {
				next := l.B
				if cur == l.B {
					next = l.A
				} else if cur != l.A {
					continue
				}
				if linkDown[li] || prev[next] != -1 {
					continue
				}
				prev[next], via[next], hops[next] = cur, li, hops[cur]+1
				queue[tail] = next
				tail++
			}
		}
		for _, b := range queue[1:tail] {
			route := make([]int, hops[b])
			for cur := b; cur != a; cur = prev[cur] {
				route[hops[cur]-1] = via[cur]
			}
			if s.routes != nil && slices.Equal(route, s.routes[a*n+b]) {
				route = s.routes[a*n+b]
			}
			table[a*n+b] = route
		}
	}
	return table
}
