// Degraded-mode runtime health: a node health mask, per-link capacity
// overrides, and deterministic rerouting around severed links. All state
// here lives on the per-machine Topology, never on the shared Spec — a
// failure schedule degrades one machine without touching its siblings in
// a parallel sweep.
//
// The inertness contract: a Topology with no health mutations keeps
// degraded == false, allocates nothing, and ChargeTransfer's healthy path
// is byte-for-byte the PR 8 behaviour. Every degraded branch is guarded
// by the single bool.
package topology

import "numasim/internal/sim"

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

// ensureDegraded lazily clones the spec's routing and capacity tables
// into runtime form on the first health mutation.
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
	t.routes = make([][]int, len(s.routes))
	copy(t.routes, s.routes)
}

// refreshLinks re-derives the effective link-down mask from the severed
// flags and the node mask, then recomputes every route.
func (t *Topology) refreshLinks() {
	s := t.spec
	for i, l := range s.links {
		t.linkDown[i] = t.severed[i] || t.nodeDown[l.A] || t.nodeDown[l.B]
	}
	t.recomputeRoutes()
}

// recomputeRoutes rebuilds the runtime route table: pairs whose spec
// route survives keep it (shared slice, no copy); broken pairs get a
// deterministic shortest-hop path over the healthy links (BFS expanding
// neighbours in ascending node order, so ties always resolve to the
// lowest-numbered detour); unreachable pairs route nil, paying only the
// base latency — the partition is visible in LinkStats as missing
// traffic, and the NUMA layer never places memory across it because the
// dead nodes are evacuated.
func (t *Topology) recomputeRoutes() {
	s := t.spec
	if len(s.routes) == 0 {
		// Uncontended specs model no interconnect: there are no routes
		// to reroute, and health changes only gate placement.
		return
	}
	for a := 0; a < s.nnodes; a++ {
		for b := 0; b < s.nnodes; b++ {
			if a == b {
				continue
			}
			spec := s.routes[a*s.nnodes+b]
			if t.routeAlive(spec) {
				t.routes[a*s.nnodes+b] = spec
				continue
			}
			t.routes[a*s.nnodes+b] = t.findRoute(a, b)
		}
	}
}

// routeAlive reports whether every link on the route is usable. A nil
// spec route stays nil (the pair never had a modelled link).
func (t *Topology) routeAlive(route []int) bool {
	for _, li := range route {
		if t.linkDown[li] {
			return false
		}
	}
	return true
}

// findRoute runs a deterministic BFS from a to b over the healthy links
// and returns the link indices along the path, or nil when b is
// unreachable (or either endpoint node is down).
func (t *Topology) findRoute(a, b int) []int {
	s := t.spec
	if t.nodeDown[a] || t.nodeDown[b] {
		return nil
	}
	// adj[n] lists (neighbour, link) pairs in ascending link order; link
	// order itself is ascending by construction in every builder, which
	// combined with FIFO BFS yields the lowest-numbered shortest detour.
	parent := make([]int, s.nnodes) // predecessor node, -1 = unvisited
	via := make([]int, s.nnodes)    // link used to reach the node
	for i := range parent {
		parent[i] = -1
	}
	parent[a] = a
	queue := []int{a}
	for len(queue) > 0 && parent[b] == -1 {
		cur := queue[0]
		queue = queue[1:]
		for li, l := range s.links {
			if t.linkDown[li] {
				continue
			}
			var next int
			switch cur {
			case l.A:
				next = l.B
			case l.B:
				next = l.A
			default:
				continue
			}
			if t.nodeDown[next] || parent[next] != -1 {
				continue
			}
			parent[next] = cur
			via[next] = li
			queue = append(queue, next)
		}
	}
	if parent[b] == -1 {
		return nil
	}
	var rev []int
	for cur := b; cur != a; cur = parent[cur] {
		rev = append(rev, via[cur])
	}
	// Reverse into a→b order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
