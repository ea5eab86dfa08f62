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
	cm := numasim.DefaultCostModel()
	if cm.LocalFetch != 650*numasim.Nanosecond {
		t.Errorf("LocalFetch = %v", cm.LocalFetch)
	}
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 32
	m, err := numasim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
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
		numasim.WithChaos(numasim.ChaosConfig{Seed: 7}.WithDefaults()),
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
	if e.Name() != "pressuresweep" {
		t.Errorf("Name() = %q", e.Name())
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

func TestFacadeExperiments(t *testing.T) {
	opts := numasim.HarnessOptions{NProc: 3, Small: true}

	rows3, err := numasim.Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := numasim.RenderTable3(rows3); !strings.Contains(out, "Gfetch") {
		t.Error("table 3 incomplete")
	}
	rows4, err := numasim.Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := numasim.RenderTable4(rows4); !strings.Contains(out, "Primes3") {
		t.Error("table 4 incomplete")
	}
	fs, err := numasim.FalseSharingExperiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Tuned.Alpha <= fs.Untuned.Alpha {
		t.Error("false-sharing experiment inverted")
	}
	sweep, err := numasim.ThresholdSweep(opts, "Gfetch", []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Errorf("sweep rows = %d", len(sweep))
	}
	mix, err := numasim.MixRun(opts, []string{"ParMult", "Primes1"})
	if err != nil {
		t.Fatal(err)
	}
	if mix.UserSec <= 0 {
		t.Error("mix did no work")
	}
	press, err := numasim.PressureSweep(opts, "Gfetch", []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(press) != 2 {
		t.Errorf("pressure rows = %d", len(press))
	}
	if out := numasim.RenderPressure(press); !strings.Contains(out, "unbounded") {
		t.Error("pressure table missing baseline row")
	}
}

func TestFacadeCopyOnWriteAndRemote(t *testing.T) {
	sys := newSystem(t, 2, numasim.PragmaPolicy(nil))
	src := sys.Runtime.Alloc("src", 4096)
	rem := sys.Runtime.Alloc("rem", 4096)
	sys.Runtime.Task().SetHome(rem, 1)
	err := sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		c.Store32(src, 10)
		dst := c.Task().CopyRegion(c.Thread(), "copy", src)
		c.Store32(dst, 20)
		if c.Load32(src) != 10 || c.Load32(dst) != 20 {
			t.Error("COW through facade failed")
		}
		c.Store32(rem, 30)
		pg := c.Task().EntryAt(rem).Object().Page(0)
		if pg.State() != numasim.RemotePlaced || pg.Home() != 1 {
			t.Errorf("remote placement through facade: state=%v home=%d", pg.State(), pg.Home())
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
