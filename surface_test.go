package numasim_test

import (
	"sort"
	"strings"
	"testing"

	"numasim"
)

// TestFacadeSurface exercises the remaining public facade entry points the
// way a downstream program would.
func TestFacadeSurface(t *testing.T) {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 32
	cfg.Cost = numasim.DefaultCostModel()
	m, err := numasim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Spec().FetchLatency(0, m.Home(0)); got != 650*numasim.Nanosecond {
		t.Errorf("local fetch latency = %v", got)
	}
	k := numasim.NewKernel(m, numasim.DefaultPolicy())
	rt := numasim.NewRuntime(k, numasim.Affinity)
	task := rt.Task()
	va := rt.Alloc("x", 4096)
	m.Engine().Spawn("t", 0, func(th *numasim.SimThread) {
		c := numasim.NewContext(k, task, th, 0)
		c.Store32(va, 5)
		if c.Load32(va) != 5 {
			t.Error("round trip failed")
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeNewOptions exercises the full option set of numasim.New the
// way a downstream program would, including chaos injection and a trace
// sink.
func TestFacadeNewOptions(t *testing.T) {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 64
	var sink numasim.TraceListSink
	sys, err := numasim.New(
		numasim.WithConfig(cfg),
		numasim.WithPolicy(numasim.ThresholdPolicy(2)),
		numasim.WithSched(numasim.Affinity),
		numasim.WithLocalFrames(2),
		numasim.WithChaos(numasim.ChaosConfig{Seed: 7, FailProb: 0.05, DelayProb: 0.10, MaxRetries: 3,
			Backoff: 200 * numasim.Microsecond, MoveDelay: 100 * numasim.Microsecond}),
		numasim.WithTraceSink(&sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	region := sys.Runtime.Alloc("data", 6*4096)
	err = sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		for p := uint32(0); p < 6; p++ {
			c.Store32(region+p*4096, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := sys.Kernel.NUMA().Stats()
	if ns.Evictions == 0 {
		t.Error("two local frames and six pages should force evictions")
	}
	if len(sink.Events()) == 0 {
		t.Error("trace sink saw no events")
	}
}

// TestFacadeNewValidates checks that New reports configuration mistakes
// as errors instead of panicking mid-build.
func TestFacadeNewValidates(t *testing.T) {
	if _, err := numasim.New(numasim.WithConfig(numasim.Config{})); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := numasim.New(numasim.WithLocalFrames(1)); err == nil {
		t.Error("local frames below the working minimum accepted")
	}
	if _, err := numasim.New(numasim.WithChaos(numasim.ChaosConfig{FailProb: 2})); err == nil {
		t.Error("out-of-range chaos probability accepted")
	}
}

// TestFacadeExperimentRegistry checks the registry re-exports: lookup is
// case-insensitive and the names list is sorted and complete.
func TestFacadeExperimentRegistry(t *testing.T) {
	e, ok := numasim.LookupExperiment("PressureSweep")
	if !ok {
		t.Fatal("pressuresweep not registered")
	}
	if e.Name != "pressuresweep" {
		t.Errorf("Name = %q", e.Name)
	}
	names := numasim.ExperimentNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("names unsorted: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "table3" {
			found = true
		}
	}
	if !found {
		t.Errorf("table3 missing from %v", names)
	}
}

// TestFacadeExperiments runs the paper's tables and the extension
// experiments through the registry, the way a downstream program would,
// and checks each rendered table for its title and rows.
func TestFacadeExperiments(t *testing.T) {
	opts := numasim.HarnessOptions{NProc: 3, Small: true}
	gfetch := opts
	gfetch.App, gfetch.PressureFrames = "Gfetch", []int{8}
	for _, c := range []struct {
		name string
		opts numasim.HarnessOptions
		want []string
	}{
		{"table3", opts, []string{"Table 3", "Gfetch"}},
		{"table4", opts, []string{"Table 4", "Primes3"}},
		{"falsesharing", opts, []string{"untuned (shared divisors)", "tuned (private divisors)"}},
		{"thresholdsweep", gfetch, []string{"Pin-threshold sweep on Gfetch", "never"}},
		{"mix", opts, []string{"IMatMult + Primes1 + FFT", "user "}},
		{"policycompare", opts, []string{"Placement policies", "threshold(4)"}},
		{"pressuresweep", gfetch, []string{"Gfetch", "unbounded"}},
	} {
		if out := runExperiment(t, c.name, c.opts); out != "" {
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q:\n%s", c.name, want, out)
				}
			}
		}
	}
}

// runExperiment runs the registered experiment name through the facade
// and returns its rendered text, or "" after reporting a failure.
func runExperiment(t *testing.T, name string, opts numasim.HarnessOptions) string {
	t.Helper()
	e, ok := numasim.LookupExperiment(name)
	if !ok {
		t.Errorf("experiment %q not registered", name)
		return ""
	}
	res, err := e.Run(opts)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return ""
	}
	return res.Render()
}

func TestFacadeRemotePlacement(t *testing.T) {
	sys := newSystem(t, 2, numasim.PragmaPolicy(nil))
	rem := sys.Runtime.Alloc("rem", 4096)
	sys.Runtime.Task().SetHome(rem, 1)
	err := sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		c.Store32(rem, 30)
		pg := c.Task().EntryAt(rem).Object().Page(0)
		if f := pg.Authoritative(); pg.State() != numasim.RemotePlaced || f.Proc() != 1 {
			t.Errorf("remote placement through facade: state=%v frame %v, want node 1's local memory", pg.State(), f)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateByNameRejectsUnknown(t *testing.T) {
	if _, err := numasim.Evaluate(numasim.HarnessOptions{NProc: 2, Small: true}, "nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
