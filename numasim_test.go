package numasim_test

import (
	"strings"
	"testing"

	"numasim"
)

// TestPublicAPIEndToEnd drives the whole system through the facade only,
// the way a downstream user would.
// newSystem builds the default machine with nproc processors under pol
// and the affinity scheduler.
func newSystem(tb testing.TB, nproc int, pol numasim.Policy) *numasim.System {
	tb.Helper()
	cfg := numasim.DefaultConfig()
	cfg.NProc = nproc
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithPolicy(pol))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := newSystem(t, 3, numasim.DefaultPolicy())

	collector := numasim.NewTraceCollector(sys.Machine.PageShift(), true)
	sys.Kernel.RefTrace = collector.Hook()

	shared := sys.Runtime.Alloc("shared", 4096)
	lock := sys.Runtime.NewSpinLock()
	barrier := numasim.NewBarrier(3)

	err := sys.Runtime.Run(3, func(id int, c *numasim.Context) {
		barrier.Wait(c)
		for i := 0; i < 200; i++ {
			lock.Lock(c)
			v := c.Load32(shared)
			c.Store32(shared, v+1)
			lock.Unlock(c)
			c.Compute(50)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	pg := sys.Runtime.Task().EntryAt(shared).Object().Page(0)
	if got := pg.GlobalFrame(); got == nil {
		t.Fatal("page has no global frame")
	}
	if v := pg.Authoritative().Load32(0); v != 600 {
		t.Errorf("counter = %d, want 600", v)
	}
	if pg.State() != numasim.GlobalWritable || !pg.Pinned() {
		t.Errorf("hot shared page state = %v pinned=%v, want pinned global", pg.State(), pg.Pinned())
	}
	if sys.Machine.Engine().TotalUserTime() <= 0 {
		t.Error("no user time")
	}
	sum := collector.Summarize()
	if sum.WritablyShared == 0 {
		t.Error("trace saw no writably-shared pages")
	}
}

func TestPublicPolicies(t *testing.T) {
	names := map[string]numasim.Policy{
		"threshold(4)":        numasim.DefaultPolicy(),
		"threshold(9)":        numasim.ThresholdPolicy(9),
		"never-pin":           numasim.NeverPinPolicy(),
		"all-global":          numasim.AllGlobalPolicy(),
		"all-local":           numasim.AllLocalPolicy(),
		"pragma+threshold(4)": numasim.PragmaPolicy(nil),
		"reconsider(2,8)":     numasim.ReconsiderPolicy(2, 8),
	}
	for want, pol := range names {
		if pol.Name() != want {
			t.Errorf("policy name %q, want %q", pol.Name(), want)
		}
	}
}

func TestPublicWorkloadsAndEvaluation(t *testing.T) {
	ws := numasim.AllWorkloads()
	if len(ws) != 8 {
		t.Fatalf("workloads = %d, want 8", len(ws))
	}
	for _, name := range []string{"Primes2-untuned", "Syscaller"} {
		if _, err := numasim.WorkloadByName(name); err != nil {
			t.Error(err)
		}
	}
	e, err := numasim.Evaluate(numasim.HarnessOptions{NProc: 3, Small: true}, "ParMult")
	if err != nil {
		t.Fatal(err)
	}
	if e.Gamma > 1.1 || e.Beta > 0.1 {
		t.Errorf("ParMult γ=%.2f β=%.2f through public API", e.Gamma, e.Beta)
	}
}

func TestPublicProtocolTables(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"table1", "copy to local"},
		{"table2", "copy to local"},
		{"figure1", "IPC bus"},
		{"figure2", "NUMA manager"},
	} {
		if out := runExperiment(t, c.name, numasim.HarnessOptions{NProc: 2}); !strings.Contains(out, c.want) {
			t.Errorf("%s missing %q:\n%s", c.name, c.want, out)
		}
	}
}

func TestPublicConstants(t *testing.T) {
	if numasim.DefaultThreshold != 4 {
		t.Error("paper default threshold is 4")
	}
	if !numasim.ProtReadWrite.CanWrite() || !numasim.ProtRead.CanRead() {
		t.Error("protections wrong")
	}
	if numasim.Second != 1000*numasim.Millisecond {
		t.Error("time units wrong")
	}
}
