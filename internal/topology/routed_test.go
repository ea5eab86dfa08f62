package topology

import (
	"fmt"
	"reflect"
	"testing"

	"numasim/internal/sim"
)

// lcg is a seeded linear congruential generator: the tests' deterministic
// source of specs and transfer schedules.
type lcg uint64

// next returns a value in [0, n).
func (s *lcg) next(n int) int {
	*s = *s*6364136223846793005 + 1442695040888963407
	return int(*s>>33) % n
}

// randomContended builds a contended Custom spec from a random symmetric
// SLIT matrix: 2–8 nodes, 1–8 processors, remote distances 11–40 and a
// per-byte service time of 1–20 ns.
func randomContended(t *testing.T, seed uint64) *Spec {
	t.Helper()
	r := lcg(seed)
	nnodes, nprocs := 2+r.next(7), 1+r.next(8)
	dist := make([][]int, nnodes)
	for a := range dist {
		dist[a] = make([]int, nnodes)
	}
	for a := 0; a < nnodes; a++ {
		dist[a][a] = LocalDistance
		for b := a + 1; b < nnodes; b++ {
			d := LocalDistance + 1 + r.next(30)
			dist[a][b], dist[b][a] = d, d
		}
	}
	s, err := Custom(fmt.Sprintf("random%d", seed), nprocs, dist, 650*sim.Nanosecond, 840*sim.Nanosecond,
		true, sim.Time(1+r.next(20))*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// routedSpecs is every built-in machine at 1–8 processors plus a few
// seeded random contended Custom specs.
func routedSpecs(t *testing.T) []*Spec {
	t.Helper()
	var specs []*Spec
	for _, name := range Names() {
		for nprocs := 1; nprocs <= 8; nprocs++ {
			s, err := ByName(name, nprocs)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		specs = append(specs, randomContended(t, seed))
	}
	return specs
}

// TestRoutedColumns: an uncontended spec routes no column, and a
// contended one routes every column but each processor's home node,
// the interleave column included.
func TestRoutedColumns(t *testing.T) {
	plain, err := Custom("plain", 3, [][]int{{10, 20}, {20, 10}}, 650*sim.Nanosecond, 840*sim.Nanosecond, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(routedSpecs(t), plain) {
		for proc := 0; proc < s.NProcs(); proc++ {
			for col := 0; col <= s.NNodes(); col++ {
				want := len(s.links) > 0 && col != s.Home(proc)
				if got := s.Routed(proc, col); got != want {
					t.Errorf("%s/%d: Routed(cpu%d, col %d) = %v, want %v", s.Name(), s.NProcs(), proc, col, got, want)
				}
			}
		}
	}
}

// TestUnroutedTransfersAreInert: for every (proc, col) Spec.Routed
// rejects, ChargeTransfer waits nothing and leaves its topology
// indistinguishable from a twin that never saw the call. The twins then
// run the same routed transfers and must wait the same and report the
// same LinkStats. Each spec is checked healthy and again after a node
// goes down, a link is severed and a link is degraded, in turn.
func TestUnroutedTransfersAreInert(t *testing.T) {
	for i, s := range routedSpecs(t) {
		t.Run(fmt.Sprintf("%s/%d", s.Name(), s.NProcs()), func(t *testing.T) {
			a, b := New(s), New(s)
			r := lcg(uint64(i) + 1)
			now := sim.Time(0)
			// drive runs the same 64 routed transfers on both twins, close
			// enough together that the links stay busy.
			drive := func(stage string) {
				t.Helper()
				for n := 0; n < 64; n++ {
					proc, col := r.next(s.NProcs()), r.next(s.NNodes()+1)
					if !s.Routed(proc, col) {
						continue
					}
					bytes := 4 + r.next(4096)
					if wa, wb := a.ChargeTransfer(now, proc, col, bytes), b.ChargeTransfer(now, proc, col, bytes); wa != wb {
						t.Fatalf("%s: routed transfer %d (cpu%d, col %d) waited %v on one twin, %v on the other", stage, n, proc, col, wa, wb)
					}
					now += sim.Time(r.next(2000)) * sim.Nanosecond
				}
			}
			stages := []struct {
				name  string
				apply func(*Topology)
			}{
				{"healthy", func(*Topology) {}},
				{"node down", func(tp *Topology) { tp.SetNodeHealth(s.NNodes()-1, false) }},
				{"link severed", func(tp *Topology) {
					if len(s.links) > 0 {
						tp.SeverLink(0)
					}
				}},
				{"link degraded", func(tp *Topology) {
					if len(s.links) > 0 {
						tp.DegradeLink(len(s.links)/2, 3)
					}
				}},
			}
			for _, st := range stages {
				st.apply(a)
				st.apply(b)
				drive(st.name + ", before")
				for proc := 0; proc < s.NProcs(); proc++ {
					for col := 0; col <= s.NNodes(); col++ {
						if s.Routed(proc, col) {
							continue
						}
						if w := a.ChargeTransfer(now, proc, col, 4096); w != 0 {
							t.Errorf("%s: unrouted transfer cpu%d → col %d waited %v", st.name, proc, col, w)
						}
					}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: unrouted transfers changed the topology's state", st.name)
				}
				drive(st.name + ", after")
				if la, lb := a.LinkStats(), b.LinkStats(); !reflect.DeepEqual(la, lb) {
					t.Fatalf("%s: link stats diverged:\n%+v\n%+v", st.name, la, lb)
				}
			}
		})
	}
}
