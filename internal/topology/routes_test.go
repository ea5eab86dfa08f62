package topology

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// TestRoutingProperties checks the route table against its definition.
// Healthy, every mesh8 pair routes along its row and then down its
// column, and every pair of a fully connected spec over its direct link.
// Then, on 4socket and mesh8 at 8 processors, every subset of severed
// links and down nodes is applied through the public mutators, and after
// each every pair must route over a shortest path of live links and
// nodes, nil when there is none, and keep the spec's own slice when its
// spec route survives the failure set.
func TestRoutingProperties(t *testing.T) {
	mesh := must(Mesh8(8))
	for a := 0; a < mesh.nnodes; a++ {
		for b := 0; b < mesh.nnodes; b++ {
			if a == b {
				continue
			}
			var want []int
			for cur := a; cur != b; {
				next := cur + 4
				switch {
				case cur%4 < b%4:
					next = cur + 1
				case cur%4 > b%4:
					next = cur - 1
				case cur > b:
					next = cur - 4
				}
				want = append(want, linkBetween(t, mesh, cur, next))
				cur = next
			}
			if got := mesh.routes[a*mesh.nnodes+b]; !reflect.DeepEqual(got, want) {
				t.Errorf("mesh8 route %d->%d = %v, want the row-then-column walk %v", a, b, got, want)
			}
		}
	}
	direct := []*Spec{must(FourSocket(8))}
	for seed := uint64(1); seed <= 6; seed++ {
		direct = append(direct, randomContended(t, seed))
	}
	for _, s := range direct {
		for a := 0; a < s.nnodes; a++ {
			for b := 0; b < s.nnodes; b++ {
				if a == b {
					continue
				}
				if got, want := s.routes[a*s.nnodes+b], []int{linkBetween(t, s, a, b)}; !reflect.DeepEqual(got, want) {
					t.Errorf("%s route %d->%d = %v, want its direct link %v", s.Name(), a, b, got, want)
				}
			}
		}
	}

	for _, s := range []*Spec{must(FourSocket(8)), mesh} {
		tp := New(s)
		nlinks := len(s.links)
		severed, down := make([]bool, nlinks), make([]bool, s.nnodes)
		// Walk the failure sets in Gray-code order, so each set differs
		// from the one before by one link or node, and one mutator call
		// reaches it.
		for k := 0; k < 1<<(nlinks+s.nnodes); k++ {
			if k > 0 {
				switch i := bits.TrailingZeros(uint(k)); {
				case i < nlinks && severed[i]:
					severed[i] = false
					tp.RestoreLink(i)
				case i < nlinks:
					severed[i] = true
					tp.SeverLink(i)
				default:
					down[i-nlinks] = !down[i-nlinks]
					tp.SetNodeHealth(i-nlinks, !down[i-nlinks])
				}
			}
			if err := checkRoutes(tp, severed, down); err != nil {
				t.Fatalf("%s with links %v severed and nodes %v down: %v", s.Name(), severed, down, err)
			}
		}
	}
}

// linkBetween returns the index of the link joining nodes a and b.
func linkBetween(t *testing.T, s *Spec, a, b int) int {
	t.Helper()
	li, ok := s.LinkIndex(fmt.Sprintf("node%d-node%d", min(a, b), max(a, b)))
	if !ok {
		t.Fatalf("%s has no link between node%d and node%d", s.Name(), a, b)
	}
	return li
}

// checkRoutes compares every route tp takes now with the fewest hops an
// all-pairs search over the live links and nodes finds.
func checkRoutes(tp *Topology, severed, down []bool) error {
	s := tp.spec
	n := s.nnodes
	live := func(li int) bool {
		l := s.links[li]
		return !severed[li] && !down[l.A] && !down[l.B]
	}
	const unreachable = 1 << 20
	hops := make([]int, n*n)
	for i := range hops {
		hops[i] = unreachable
	}
	for a := 0; a < n; a++ {
		hops[a*n+a] = 0
	}
	for li, l := range s.links {
		if live(li) {
			hops[l.A*n+l.B], hops[l.B*n+l.A] = 1, 1
		}
	}
	for k := 0; k < n; k++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				hops[a*n+b] = min(hops[a*n+b], hops[a*n+k]+hops[k*n+b])
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			got := route(tp, a, b)
			if hops[a*n+b] == unreachable {
				if got != nil {
					return fmt.Errorf("route %d->%d = %v, want nil: no live path", a, b, got)
				}
				continue
			}
			cur := a
			for _, li := range got {
				l := s.links[li]
				if !live(li) || (cur != l.A && cur != l.B) {
					return fmt.Errorf("route %d->%d = %v crosses link %d (%s) from node%d", a, b, got, li, l.Name, cur)
				}
				cur = l.A + l.B - cur
			}
			if cur != b {
				return fmt.Errorf("route %d->%d = %v ends at node%d", a, b, got, cur)
			}
			if len(got) > hops[a*n+b] {
				return fmt.Errorf("route %d->%d = %v takes %d hops, the shortest path %d", a, b, got, len(got), hops[a*n+b])
			}
			spec := s.routes[a*n+b]
			intact := true
			for _, li := range spec {
				intact = intact && live(li)
			}
			if intact && &got[0] != &spec[0] {
				return fmt.Errorf("route %d->%d = %v is not the surviving spec route %v", a, b, got, spec)
			}
		}
	}
	return nil
}
