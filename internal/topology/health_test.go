package topology

// Unit tests for the degraded-mode runtime health state: deterministic
// rerouting around severed links and dead nodes, per-link capacity
// overrides, restore semantics, and the round-robin interleave cursor
// skipping offline nodes.

import (
	"reflect"
	"testing"

	"numasim/internal/sim"
)

// route returns the route a transfer between two nodes takes now: the
// runtime route once the topology is degraded, the spec's before.
func route(tp *Topology, src, dst int) []int {
	if src == dst {
		return nil
	}
	if tp.degraded {
		return tp.routes[src*tp.spec.nnodes+dst]
	}
	return tp.spec.routes[src*tp.spec.nnodes+dst]
}

// TestMeshDetour severs the node1-node2 edge of the 2x4 mesh and checks
// the XY routes recompute to the lowest-numbered shortest detour: BFS
// expands healthy links in ascending index order, so ties always
// resolve the same way.
func TestMeshDetour(t *testing.T) {
	spec, err := Mesh8(8)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	li, ok := spec.LinkIndex("node1-node2")
	if !ok {
		t.Fatal("mesh8 lacks link node1-node2")
	}
	if got := route(tp, 0, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("healthy route 0->2 = %v, want [0 1]", got)
	}

	tp.SeverLink(li)
	if !tp.degraded {
		t.Error("SeverLink did not mark the topology degraded")
	}
	if !tp.linkDown[li] {
		t.Error("severed link not reported severed")
	}
	// 0->2 detours through row 1: 0->1 over link 0, down link 7, across
	// link 4, up link 8. 0->3 pays the same drop-and-return, five hops.
	if got := route(tp, 0, 2); !reflect.DeepEqual(got, []int{0, 7, 4, 8}) {
		t.Errorf("severed route 0->2 = %v, want [0 7 4 8]", got)
	}
	if got := route(tp, 0, 3); !reflect.DeepEqual(got, []int{0, 7, 4, 5, 9}) {
		t.Errorf("severed route 0->3 = %v, want [0 7 4 5 9]", got)
	}
	// Pairs whose spec route avoids the severed link keep the exact spec
	// slice (shared, not copied).
	if got, want := route(tp, 4, 6), spec.routes[4*spec.nnodes+6]; &got[0] != &want[0] {
		t.Error("unaffected pair did not keep the shared spec route")
	}

	tp.RestoreLink(li)
	if got := route(tp, 0, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("restored route 0->2 = %v, want [0 1]", got)
	}
	if tp.linkDown[li] {
		t.Error("restored link still reported severed")
	}
}

// TestFullyConnectedRelay severs a direct link of the fully connected
// 4-socket machine and checks the pair relays two-hop through the
// lowest-numbered healthy intermediate — and moves to the next
// intermediate when that node dies too, then routes nil (base latency
// only) when the pair is fully partitioned.
func TestFullyConnectedRelay(t *testing.T) {
	spec, err := FourSocket(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	li, ok := spec.LinkIndex("node0-node1")
	if !ok {
		t.Fatal("4socket lacks link node0-node1")
	}

	tp.SeverLink(li)
	// Relay through node2: node0-node2 (link 1) then node1-node2 (link 3).
	if got := route(tp, 0, 1); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("severed route 0->1 = %v, want relay via node2 [1 3]", got)
	}
	if got := route(tp, 1, 0); !reflect.DeepEqual(got, []int{3, 1}) {
		t.Errorf("severed route 1->0 = %v, want relay via node2 [3 1]", got)
	}

	tp.SetNodeHealth(2, false)
	if tp.nodeDown[0] || !tp.nodeDown[2] {
		t.Error("node health mask wrong after taking node2 down")
	}
	// node2 down: relay shifts to node3 (links 2 and 4).
	if got := route(tp, 0, 1); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Errorf("route 0->1 with node2 down = %v, want relay via node3 [2 4]", got)
	}

	tp.SetNodeHealth(3, false)
	// All intermediates dead: the pair is partitioned and routes nil.
	if got := route(tp, 0, 1); got != nil {
		t.Errorf("partitioned route 0->1 = %v, want nil", got)
	}

	// Reviving node2 heals the partition through it again.
	tp.SetNodeHealth(2, true)
	if got := route(tp, 0, 1); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("route 0->1 after reviving node2 = %v, want [1 3]", got)
	}
}

// TestNodeDownSeversIncidentLinks checks a dead node takes its incident
// links with it, and re-onlining restores them unless independently
// severed.
func TestNodeDownSeversIncidentLinks(t *testing.T) {
	spec, err := FourSocket(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	l01, _ := spec.LinkIndex("node0-node1")
	l12, _ := spec.LinkIndex("node1-node2")
	l23, _ := spec.LinkIndex("node2-node3")

	tp.SetNodeHealth(1, false)
	if !tp.linkDown[l01] || !tp.linkDown[l12] {
		t.Error("links incident to the dead node are still routable")
	}
	if tp.linkDown[l23] {
		t.Error("link between two healthy nodes reported severed")
	}

	tp.SeverLink(l01) // independently severed while the node is down
	tp.SetNodeHealth(1, true)
	if !tp.linkDown[l01] {
		t.Error("independently severed link healed by node revival")
	}
	if tp.linkDown[l12] {
		t.Error("incident link not restored by node revival")
	}
}

// TestDegradeLinkFactor checks the per-byte override arithmetic and its
// restore, and that a degraded (slower, but routable) link keeps its
// routes.
func TestDegradeLinkFactor(t *testing.T) {
	spec, err := FourSocket(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	li, _ := spec.LinkIndex("node0-node1")
	base := spec.links[li].PerByte

	tp.DegradeLink(li, 4)
	if got := tp.perByte[li]; got != 4*base {
		t.Errorf("degraded per-byte = %v, want %v", got, 4*base)
	}
	if got := route(tp, 0, 1); len(got) != 1 {
		t.Errorf("degraded link lost its route: %v", got)
	}
	tp.DegradeLink(li, 0) // clamps to 1
	if got := tp.perByte[li]; got != base {
		t.Errorf("factor<1 per-byte = %v, want clamp to %v", got, base)
	}
	tp.DegradeLink(li, 4)
	tp.RestoreLink(li)
	if got := tp.perByte[li]; got != base {
		t.Errorf("restored per-byte = %v, want %v", got, base)
	}
}

// TestNodeDownFollowsHealth checks the node mask's readers: on a fresh
// topology every node and processor is up and reading them allocates no
// mask; afterwards NodeDown follows SetNodeHealth, and ProcDown follows
// each processor's home node.
func TestNodeDownFollowsHealth(t *testing.T) {
	spec, err := FourSocket(8)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	check := func(when string, down int) {
		t.Helper()
		for n := 0; n < spec.NNodes(); n++ {
			if got := tp.NodeDown(n); got != (n == down) {
				t.Errorf("%s: NodeDown(%d) = %v", when, n, got)
			}
		}
		for p := 0; p < spec.NProcs(); p++ {
			if got := tp.ProcDown(p); got != (spec.Home(p) == down) {
				t.Errorf("%s: ProcDown(%d) on node%d = %v", when, p, spec.Home(p), got)
			}
		}
	}
	check("fresh", -1)
	if tp.degraded || tp.nodeDown != nil {
		t.Error("reading a fresh topology's health degraded it")
	}
	tp.SetNodeHealth(2, false)
	check("node2 down", 2)
	tp.SetNodeHealth(2, true)
	check("node2 revived", -1)
}

// TestInterleaveSkipsOfflineNodes checks the round-robin cursor that
// resolves interleaved-global transfers never lands on a dead node
// while any node survives.
func TestInterleaveSkipsOfflineNodes(t *testing.T) {
	spec, err := FourSocket(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	tp.SetNodeHealth(1, false)
	tp.SetNodeHealth(3, false)
	for i := 0; i < 8; i++ {
		n := tp.nextInterleave()
		if n == 1 || n == 3 {
			t.Fatalf("interleave cursor landed on offline node%d", n)
		}
	}
}

// TestDegradedChargeDeterminism replays the same transfer schedule on
// two independently degraded topologies and checks every charge
// matches: rerouted queueing must be a pure function of the schedule.
func TestDegradedChargeDeterminism(t *testing.T) {
	build := func() *Topology {
		spec, err := Mesh8(8)
		if err != nil {
			t.Fatal(err)
		}
		tp := New(spec)
		li, _ := spec.LinkIndex("node1-node2")
		tp.SeverLink(li)
		return tp
	}
	a, b := build(), build()
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		proc := i % 8
		col := (i * 3) % 9 // includes column 8, the interleaved global
		bytes := 64 + (i%7)*32
		wa := a.ChargeTransfer(now, proc, col, bytes)
		wb := b.ChargeTransfer(now, proc, col, bytes)
		if wa != wb {
			t.Fatalf("step %d: charge diverged: %v vs %v", i, wa, wb)
		}
		now += sim.Time(100+i) * sim.Nanosecond
	}
}

// TestUncontendedHealthMutations checks health mutations on a spec with
// no modelled interconnect are safe no-ops for routing: there are no
// routes to recompute, quarantine still gates placement, and
// ChargeTransfer still charges nothing.
func TestUncontendedHealthMutations(t *testing.T) {
	spec, err := Custom("plain", 4, [][]int{
		{10, 20, 20, 20}, {20, 10, 20, 20}, {20, 20, 10, 20}, {20, 20, 20, 10},
	}, 650*sim.Nanosecond, 840*sim.Nanosecond, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := New(spec)
	tp.SetNodeHealth(2, false)
	if !tp.nodeDown[2] {
		t.Error("uncontended topology did not record node health")
	}
	if got := tp.ChargeTransfer(0, 0, 1, 4096); got != 0 {
		t.Errorf("uncontended transfer charged %v, want 0", got)
	}
	tp.SetNodeHealth(2, true)
	if tp.nodeDown[2] {
		t.Error("node2 still down after revival")
	}
}
