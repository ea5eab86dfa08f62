package topology

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// view renders everything a Spec's accessors return: two specs with equal
// views are the same machine shape to every caller.
func view(s *Spec) string {
	var b strings.Builder
	b.WriteString(s.Describe())
	fmt.Fprintf(&b, "%s: %d nodes, %d processors, contended %v\n", s.Name(), s.NNodes(), s.NProcs(), s.contended)
	for p := 0; p < s.NProcs(); p++ {
		fmt.Fprintf(&b, "cpu%d home %d:", p, s.Home(p))
		for col := 0; col <= s.NNodes(); col++ {
			fmt.Fprintf(&b, " %v/%v/%v", s.FetchLatency(p, col), s.StoreLatency(p, col), s.Routed(p, col))
		}
		b.WriteString("\n")
	}
	for a := 0; a < s.NNodes(); a++ {
		fmt.Fprintf(&b, "node%d: procs %v, ranked %v, dist", a, s.NodeProcs(a), s.Ranked(a))
		for c := 0; c < s.NNodes(); c++ {
			fmt.Fprintf(&b, " %d", s.Dist(a, c))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "links %v\n", s.links)
	return b.String()
}

// TestByNameSharesOneSpec: ByName returns one spec per name and
// processor count, which equals a fresh build from the exported builder
// in everything its accessors return. A failed build is not kept.
func TestByNameSharesOneSpec(t *testing.T) {
	for _, b := range builders {
		for n := 1; n <= 8; n++ {
			s, err := ByName(b.name, n)
			if err != nil {
				t.Fatalf("ByName(%q, %d): %v", b.name, n, err)
			}
			if again, _ := ByName(b.name, n); again != s {
				t.Errorf("ByName(%q, %d) returned two specs", b.name, n)
			}
			fresh, err := b.build(n)
			if err != nil {
				t.Fatal(err)
			}
			if fresh == s {
				t.Errorf("the %s builder returned the shared spec, want a fresh one", b.name)
			}
			if got, want := view(s), view(fresh); got != want {
				t.Errorf("shared %s at %d processors differs from a fresh build:\n%s\nwant:\n%s", b.name, n, got, want)
			}
		}
	}
	if def, _ := ByName("", 4); def == nil || def != must(ByName("ace", 4)) {
		t.Error(`ByName("", 4) is not the shared ACE spec`)
	}
	if _, err := ByName("ace", 0); err == nil {
		t.Error("ByName built a 0-processor ACE")
	}
	if _, ok := specs.Load(specKey{"ace", 0}); ok {
		t.Error("ByName kept a failed build")
	}
}

// TestByNameConcurrentFirstUse: goroutines that ask at once for a shape
// no one has asked for before all get the same spec. Run it with -race.
func TestByNameConcurrentFirstUse(t *testing.T) {
	const callers, nprocs = 8, 9
	for _, b := range builders {
		// Forget the shape, so it is new also under -count.
		specs.Delete(specKey{b.name, nprocs})
		got := make([]*Spec, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				s, err := ByName(b.name, nprocs)
				if err != nil {
					t.Error(err)
				}
				got[i] = s
			}()
		}
		close(start)
		wg.Wait()
		for i, s := range got {
			if s == nil || s != got[0] {
				t.Errorf("%s: caller %d got spec %p, caller 0 got %p", b.name, i, s, got[0])
			}
		}
		if got[0] != nil && got[0] != must(ByName(b.name, nprocs)) {
			t.Errorf("%s: a later ByName returned another spec", b.name)
		}
	}
}

// must returns s, panicking on err.
func must(s *Spec, err error) *Spec {
	if err != nil {
		panic(err)
	}
	return s
}
