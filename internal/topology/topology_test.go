package topology

import (
	"testing"

	"numasim/internal/sim"
)

// aceLat is the paper's measured latency set (§2.2), copied here so the
// ACE builder is checked against the published numbers.
var aceLat = struct {
	LocalFetch, LocalStore, GlobalFetch, GlobalStore, RemoteFetch, RemoteStore sim.Time
}{
	LocalFetch: 650 * sim.Nanosecond, LocalStore: 840 * sim.Nanosecond,
	GlobalFetch: 1500 * sim.Nanosecond, GlobalStore: 1400 * sim.Nanosecond,
	RemoteFetch: 1800 * sim.Nanosecond, RemoteStore: 1700 * sim.Nanosecond,
}

// TestScaleGlobal: the scaled copy multiplies every processor's
// interleave-column latencies, keeps every node column, and leaves the
// original spec as it was.
func TestScaleGlobal(t *testing.T) {
	s, err := FourSocket(6)
	if err != nil {
		t.Fatal(err)
	}
	g := s.NNodes()
	orig := s.FetchLatency(0, g)
	c := s.ScaleGlobal(2)
	for p := 0; p < s.NProcs(); p++ {
		for col := 0; col <= g; col++ {
			f, st := s.FetchLatency(p, col), s.StoreLatency(p, col)
			if col == g {
				f, st = 2*f, 2*st
			}
			if c.FetchLatency(p, col) != f || c.StoreLatency(p, col) != st {
				t.Errorf("scaled cpu%d col %d = %v/%v, want %v/%v", p, col, c.FetchLatency(p, col), c.StoreLatency(p, col), f, st)
			}
		}
	}
	if s.FetchLatency(0, g) != orig {
		t.Errorf("ScaleGlobal changed the original's global fetch to %v, was %v", s.FetchLatency(0, g), orig)
	}
	if got, want := c.GOverL(0), 2*s.GOverL(0); got != want {
		t.Errorf("scaled fetch-only G/L = %v, want %v", got, want)
	}
}

// TestACESpecMatchesPublishedConstants: the ACE builder's latency matrix
// holds exactly the six published constants — the foundation of the
// byte-identity contract.
func TestACESpecMatchesPublishedConstants(t *testing.T) {
	s, err := ACE(7)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNodes() != 7 || s.NProcs() != 7 {
		t.Fatalf("ACE shape: %d nodes, %d procs, want 7 and 7", s.NNodes(), s.NProcs())
	}
	for p := 0; p < 7; p++ {
		if s.Home(p) != p {
			t.Errorf("ACE home of cpu%d = %d, want identity", p, s.Home(p))
		}
		if got := s.NodeProcs(p); len(got) != 1 || got[0] != p {
			t.Errorf("ACE NodeProcs(%d) = %v, want [%d]", p, got, p)
		}
		for n := 0; n <= 7; n++ {
			wantF, wantS := aceLat.RemoteFetch, aceLat.RemoteStore
			switch {
			case n == p:
				wantF, wantS = aceLat.LocalFetch, aceLat.LocalStore
			case n == 7:
				wantF, wantS = aceLat.GlobalFetch, aceLat.GlobalStore
			}
			if got := s.FetchLatency(p, n); got != wantF {
				t.Errorf("ACE fetch[%d][%d] = %v, want %v", p, n, got, wantF)
			}
			if got := s.StoreLatency(p, n); got != wantS {
				t.Errorf("ACE store[%d][%d] = %v, want %v", p, n, got, wantS)
			}
		}
	}
	if s.contended {
		t.Error("ACE spec models link contention; the paper's bus is fixed-latency")
	}
	// 1800/650 scaled to SLIT units: 27.
	if d := s.Dist(0, 1); d != 27 {
		t.Errorf("ACE remote distance = %d, want 27 (1800*10/650)", d)
	}
	// Global frames (mem's proc -1) map to the interleave column.
	if c := s.Col(-1); c != 7 {
		t.Errorf("Col(-1) = %d, want the interleave column 7", c)
	}
}

// TestDerivedLatencies: Custom derives entry (p,n) as base × dist/10 in
// integer nanoseconds and the interleave column as the integer mean.
func TestDerivedLatencies(t *testing.T) {
	dist := [][]int{{10, 16, 22}, {16, 10, 16}, {22, 16, 10}}
	s, err := Custom("t", 3, dist, 650*sim.Nanosecond, 840*sim.Nanosecond, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		var sum sim.Time
		for n := 0; n < 3; n++ {
			want := 650 * sim.Nanosecond * sim.Time(dist[p][n]) / 10
			if got := s.FetchLatency(p, n); got != want {
				t.Errorf("fetch[%d][%d] = %v, want %v", p, n, got, want)
			}
			sum += want
		}
		if got, want := s.FetchLatency(p, 3), sum/3; got != want {
			t.Errorf("interleave fetch[%d] = %v, want mean %v", p, got, want)
		}
	}
}

// TestRanked: remotes come distance-ranked, self first, ties by id.
func TestRanked(t *testing.T) {
	dist := [][]int{
		{10, 30, 20, 30},
		{30, 10, 30, 20},
		{20, 30, 10, 30},
		{30, 20, 30, 10},
	}
	s, err := Custom("t", 4, dist, 650*sim.Nanosecond, 840*sim.Nanosecond, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2, 1, 3}, {1, 3, 0, 2}, {2, 0, 1, 3}, {3, 1, 0, 2}}
	for n := range want {
		got := s.Ranked(n)
		for i := range want[n] {
			if got[i] != want[n][i] {
				t.Fatalf("Ranked(%d) = %v, want %v", n, got, want[n])
			}
		}
	}
}

// TestValidateRejects: the SLIT conventions are enforced.
func TestValidateRejects(t *testing.T) {
	base := 650 * sim.Nanosecond
	cases := []struct {
		name string
		dist [][]int
	}{
		{"diagonal not 10", [][]int{{11, 20}, {20, 10}}},
		{"remote at local distance", [][]int{{10, 10}, {10, 10}}},
		{"remote below local", [][]int{{10, 5}, {5, 10}}},
	}
	for _, c := range cases {
		if _, err := Custom("bad", 2, c.dist, base, base, false, 0); err == nil {
			t.Errorf("%s: accepted %v", c.name, c.dist)
		}
	}
	if _, err := Custom("bad", 2, [][]int{{10, 20}, {20, 10}}, 0, base, false, 0); err == nil {
		t.Error("zero base latency accepted")
	}
	if _, err := ByName("torus", 4); err == nil {
		t.Error("unknown topology name accepted")
	}
}

// TestBuilders: the registered topologies build for assorted processor
// counts and carry the advertised shapes.
func TestBuilders(t *testing.T) {
	for _, np := range []int{2, 4, 7, 8, 16} {
		s, err := FourSocket(np)
		if err != nil {
			t.Fatalf("FourSocket(%d): %v", np, err)
		}
		if s.NNodes() != 4 || !s.contended || len(s.links) != 6 {
			t.Errorf("FourSocket(%d): %d nodes, %d links, contended=%v", np, s.NNodes(), len(s.links), s.contended)
		}
		m, err := Mesh8(np)
		if err != nil {
			t.Fatalf("Mesh8(%d): %v", np, err)
		}
		if m.NNodes() != 8 || !m.contended || len(m.links) != 10 {
			t.Errorf("Mesh8(%d): %d nodes, %d links, contended=%v", np, m.NNodes(), len(m.links), m.contended)
		}
		// Opposite corners of the 2x4 mesh are 4 hops: 10 + 6*4.
		if d := m.Dist(0, 7); d != 34 {
			t.Errorf("Mesh8 corner distance = %d, want 34", d)
		}
	}
	for _, name := range Names()[1:] {
		if _, err := ByName(name, 8); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

// TestNamesTable: every listed name is unique and builds under exactly
// that name, the empty name is the ACE, and names match exactly, with no
// aliases.
func TestNamesTable(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("Names() lists %q twice: %v", name, Names())
		}
		seen[name] = true
		s, err := ByName(name, 4)
		if err != nil {
			t.Errorf("ByName(%q, 4): %v", name, err)
			continue
		}
		if s.Name() != name || s.NProcs() != 4 {
			t.Errorf("ByName(%q, 4) built %s with %d processors", name, s.Name(), s.NProcs())
		}
	}
	if s, err := ByName("", 4); err != nil || s.Name() != "ace" {
		t.Errorf("ByName(\"\", 4) = %v, %v; want the ACE", s, err)
	}
	for _, alias := range []string{"foursocket", "4-socket", "mesh", "8mesh", "ACE"} {
		if _, err := ByName(alias, 4); err == nil {
			t.Errorf("ByName(%q) accepted an unlisted name", alias)
		}
	}
}

// TestServiceConservation: every transfer's service time lands in exactly
// the links on its route — summing LinkStats.Service over all links equals
// the sum over transfers of route-length × bytes × PerByte, regardless of
// interleaving or contention.
func TestServiceConservation(t *testing.T) {
	s, err := Mesh8(8)
	if err != nil {
		t.Fatal(err)
	}
	topo := New(s)
	var want sim.Time
	var wantBytes uint64
	now := sim.Time(0)
	// A deterministic pseudo-random schedule (LCG; no math/rand in the
	// deterministic core).
	state := uint64(42)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < 5000; i++ {
		proc := next(8)
		col := next(9) // node column or the interleave column 8
		bytes := 4 + next(4096)
		before := topo.rrTarget(proc, col)
		topo.ChargeTransfer(now, proc, col, bytes)
		if hops := len(s.routes[s.homeOf[proc]*s.nnodes+before]); before != s.homeOf[proc] {
			want += sim.Time(hops) * sim.Time(bytes) * 12 * sim.Nanosecond
			wantBytes += uint64(bytes) * uint64(hops)
		}
		now += sim.Time(next(2000)) * sim.Nanosecond
	}
	var got sim.Time
	var gotBytes uint64
	for _, l := range topo.LinkStats() {
		got += l.Service
		gotBytes += l.Bytes
	}
	if got != want || gotBytes != wantBytes {
		t.Errorf("service not conserved: got %v/%d bytes, want %v/%d bytes", got, gotBytes, want, wantBytes)
	}
}

// rrTarget resolves the destination node ChargeTransfer will pick for col
// without consuming the round-robin cursor (test helper).
func (t *Topology) rrTarget(proc, col int) int {
	if col == t.spec.nnodes {
		return t.rr
	}
	return col
}

// TestQueueingMonotone: at a fixed transfer schedule, total queueing delay
// is monotone non-decreasing in offered load (transfer size).
func TestQueueingMonotone(t *testing.T) {
	s, err := FourSocket(4)
	if err != nil {
		t.Fatal(err)
	}
	waitedAt := func(bytes int) sim.Time {
		topo := New(s)
		var total sim.Time
		// Two processors hammer the same link back-to-back at 1µs spacing.
		for i := 0; i < 200; i++ {
			now := sim.Time(i) * sim.Microsecond
			total += topo.ChargeTransfer(now, 0, 1, bytes)
			total += topo.ChargeTransfer(now, 1, 0, bytes)
		}
		return total
	}
	prev := sim.Time(-1)
	for _, bytes := range []int{16, 64, 256, 1024, 4096} {
		w := waitedAt(bytes)
		if w < prev {
			t.Errorf("queueing delay fell from %v to %v as size grew to %d bytes", prev, w, bytes)
		}
		prev = w
	}
	if prev == 0 {
		t.Error("4KB back-to-back transfers never queued; the token bucket is inert")
	}
}

// TestChargeTransferDeterminism: identical schedules against fresh
// Topology values produce identical waits and stats — the property that
// keeps -parallel byte-identical.
func TestChargeTransferDeterminism(t *testing.T) {
	s, err := Mesh8(8)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]sim.Time, []LinkStats) {
		topo := New(s)
		var waits []sim.Time
		state := uint64(7)
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			waits = append(waits, topo.ChargeTransfer(now, next(8), next(9), 4+next(512)))
			now += sim.Time(next(900)) * sim.Nanosecond
		}
		return waits, topo.LinkStats()
	}
	w1, s1 := run()
	w2, s2 := run()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("replay diverged at transfer %d: %v vs %v", i, w1[i], w2[i])
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("replay link stats diverged on %s: %+v vs %+v", s1[i].Name, s1[i], s2[i])
		}
	}
}

// TestUncontendedChargesNothing: the ACE spec's ChargeTransfer is a no-op
// with no link state — the fast path the byte-identity contract rides on.
func TestUncontendedChargesNothing(t *testing.T) {
	s, err := ACE(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := New(s)
	for i := 0; i < 100; i++ {
		if w := topo.ChargeTransfer(sim.Time(i), i%3, (i+1)%4, 4096); w != 0 {
			t.Fatalf("uncontended transfer %d waited %v", i, w)
		}
	}
	if topo.LinkStats() != nil {
		t.Error("uncontended topology reported link stats")
	}
}
