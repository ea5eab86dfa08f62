package policy_test

// Differential tests for the Policy API: the bare command-line
// spellings must keep building the policies they always did, and the
// adaptive policies must read the manager's heat counters whether they
// are bound bare or under a wrapper.

import (
	"reflect"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
)

// TestParseBareSpellings: every bare policy name the command line has
// always accepted builds the same policy type and name it always did.
func TestParseBareSpellings(t *testing.T) {
	for _, c := range []struct {
		spec string
		want numa.Policy
		name string
	}{
		{"threshold", &policy.Threshold{}, "threshold(4)"},
		{"neverpin", &policy.Threshold{}, "never-pin"},
		{"allglobal", policy.AllGlobal{}, "all-global"},
		{"alllocal", policy.AllLocal{}, "all-local"},
		{"pragma", &policy.Pragma{}, "pragma+threshold(4)"},
		{"reconsider", &policy.Reconsider{}, "reconsider(4,64)"},
		{"freezedefrost", &policy.FreezeDefrost{}, "freeze-defrost(20.000ms,200.000ms)"},
	} {
		pol, err := policy.Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if reflect.TypeOf(pol) != reflect.TypeOf(c.want) {
			t.Errorf("Parse(%q) built %T, want %T", c.spec, pol, c.want)
		}
		if pol.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, pol.Name(), c.name)
		}
	}
}

// TestAdaptivePoliciesAnswerSanely drives each adaptive policy's
// CachePolicy against a live manager page and checks the answers stay
// within the protocol's vocabulary.
func TestAdaptivePoliciesAnswerSanely(t *testing.T) {
	for _, spec := range []string{"decaythreshold", "bandit", "classifier", "coplace"} {
		pol, err := policy.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ace.DefaultConfig()
		cfg.NProc = 2
		m := ace.MustMachine(cfg)
		n := numa.NewManager(m, pol)
		m.Engine().Spawn("probe", 0, func(th *sim.Thread) {
			pg, err := n.NewPage()
			if err != nil {
				t.Errorf("%s: %v", spec, err)
				return
			}
			for i := 0; i < 32; i++ {
				loc := pol.CachePolicy(pg, i%2, i%3 == 0, mmu.ProtReadWrite)
				if loc != numa.Local && loc != numa.Global && loc != numa.PlaceRemote {
					t.Errorf("%s: answer %v out of vocabulary", spec, loc)
					return
				}
				n.Access(th, pg, i%2, i%3 == 0, mmu.ProtReadWrite)
			}
		})
		if err := m.Engine().Run(); err != nil {
			t.Fatalf("%s: engine: %v", spec, err)
		}
	}
}

// TestPragmaWrappedAdaptivePolicies: the manager keeps the heat counters
// on every request, so an adaptive policy reached through a wrapper
// reads them as it would bare. A page two processors write alternately
// twelve times has moved eleven times within one heat epoch; the
// wrapped decay threshold (limit 4) must pin it.
func TestPragmaWrappedAdaptivePolicies(t *testing.T) {
	pol, err := policy.Parse("pragma:fallback=decaythreshold")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	m := ace.MustMachine(cfg)
	n := numa.NewManager(m, pol)
	var pg *numa.Page
	m.Engine().Spawn("writers", 0, func(th *sim.Thread) {
		var err error
		if pg, err = n.NewPage(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 12; i++ {
			n.Access(th, pg, i%2, true, mmu.ProtReadWrite)
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if pg == nil {
		return
	}
	if !pg.Pinned() {
		t.Errorf("%s left a page moved %d times unpinned (move heat %d)", pol.Name(), pg.Moves(), pg.MoveHeat())
	}
}
