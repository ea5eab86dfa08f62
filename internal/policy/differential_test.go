package policy_test

// Differential tests for the Policy API redesign: a capability-free
// policy must produce bit-identical runs whether or not it is wrapped
// with no-op capabilities (heat tracking must be invisible), and the
// bare command-line spellings must keep building the policies they
// always did.

import (
	"reflect"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/metrics"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

// shimmed is Threshold plus no-op observer and retirer capabilities: it
// makes the manager maintain the heat histograms and tick the epoch
// clock without acting on either, so any divergence from the bare
// policy is a redesign bug.
type shimmed struct {
	*policy.Threshold
}

// ObserveAccess implements numa.PageObserver.
//
//numalint:hotpath
func (shimmed) ObserveAccess(pg *numa.Page, proc int, write bool, now sim.Time) {}

// RetireEpoch implements numa.Retirer.
//
//numalint:hotpath
func (shimmed) RetireEpoch(now sim.Time) {}

var (
	_ numa.PageObserver = shimmed{}
	_ numa.Retirer      = shimmed{}
)

func runWith(t *testing.T, w metrics.Runner, pol numa.Policy) metrics.RunResult {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	res, err := metrics.Run(w, metrics.RunSpec{
		Config: cfg, Policy: pol, Workers: 3, Sched: sched.Affinity,
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", w.Name(), pol.Name(), err)
	}
	return res
}

// TestCapabilityShimIsInvisible runs the same workloads under the bare
// Threshold and the shimmed one; every measured field must match. This
// is the differential proof that capability-free policies behave
// identically before and after the redesign: the shim exercises the
// entire counter-maintenance path the redesign added, and the results
// may not move by a single count or tick.
func TestCapabilityShimIsInvisible(t *testing.T) {
	for _, mk := range []func() metrics.Runner{
		func() metrics.Runner { return workloads.NewGfetch(12, 4) },
		func() metrics.Runner { return workloads.NewZipf(0, 0, 0) },
		func() metrics.Runner { return workloads.NewPhased(0, 0, 0) },
	} {
		bare := runWith(t, mk(), policy.NewDefault())
		shim := runWith(t, mk(), shimmed{policy.NewDefault()})
		if !reflect.DeepEqual(bare, shim) {
			t.Errorf("%s: bare and shimmed Threshold diverge:\nbare: %+v\nshim: %+v",
				bare.Workload, bare, shim)
		}
	}
}

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
		if !n.TracksHeat() {
			t.Errorf("%s: adaptive policy bound but heat tracking is off", spec)
		}
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
