package harness

import (
	"reflect"
	"strings"
	"testing"

	"numasim/internal/sim"
	"numasim/internal/workloads"
)

var small = Options{NProc: 4, Small: true}

func TestProtocolTablesMatchPaper(t *testing.T) {
	// E3/E4: the rendered matrices must contain the paper's cell contents.
	t1, err := ProtocolTable(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "sync&flush other; copy to local -> read-only",
		"unmap all; copy to local -> read-only",
		"sync&flush own -> global-writable",
		"no action -> local-writable",
	} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2, err := ProtocolTable(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 2", "flush other; copy to local -> local-writable",
		"unmap all; copy to local -> local-writable",
		"sync&flush other; copy to local -> local-writable",
		"sync&flush other -> global-writable",
	} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

// TestTable3Shape is E5: the headline result. We do not check absolute
// seconds (our substrate is a simulator), but the shape the paper claims:
// which apps achieve near-optimal placement (γ≈1), the extremes, and the
// α/β orderings.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3(small)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table3Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}

	// Gfetch: β≈1, α≈0, γ ≈ G/L(fetch) ≈ 2.3.
	g := byApp["Gfetch"].Eval
	if g.Beta < 0.9 || g.Alpha > 0.1 {
		t.Errorf("Gfetch α=%.2f β=%.2f, want α≈0 β≈1", g.Alpha, g.Beta)
	}
	if g.Gamma < 2.0 || g.Gamma > 2.4 {
		t.Errorf("Gfetch γ=%.2f, want ≈2.3", g.Gamma)
	}
	// ParMult: β≈0, γ≈1.
	p := byApp["ParMult"].Eval
	if p.Beta > 0.1 || p.Gamma > 1.1 {
		t.Errorf("ParMult β=%.2f γ=%.2f, want ≈0/≈1", p.Beta, p.Gamma)
	}
	// The well-placed apps: γ within a few percent of 1.
	for _, app := range []string{"IMatMult", "Primes1", "Primes2", "FFT", "PlyTrace"} {
		e := byApp[app].Eval
		if e.Gamma > 1.12 {
			t.Errorf("%s γ=%.2f, want ≈1 (near-optimal placement)", app, e.Gamma)
		}
		if e.Alpha < 0.8 {
			t.Errorf("%s α=%.2f, want high (mostly local)", app, e.Alpha)
		}
	}
	// Primes3: heavy legitimate sharing — low α, γ clearly above 1 but
	// well below G/L.
	p3 := byApp["Primes3"].Eval
	if p3.Alpha > 0.5 {
		t.Errorf("Primes3 α=%.2f, want low (sieve is writably shared)", p3.Alpha)
	}
	if p3.Gamma < 1.1 || p3.Gamma > 1.9 {
		t.Errorf("Primes3 γ=%.2f, want between 1.1 and 1.9 (paper: 1.30)", p3.Gamma)
	}
	// Orderings: Tglobal >= Tnuma >= ~Tlocal for every app.
	for _, r := range rows {
		e := r.Eval
		if e.Tnuma > e.Tglobal*1.05 {
			t.Errorf("%s: Tnuma %.3f exceeds Tglobal %.3f", r.App, e.Tnuma, e.Tglobal)
		}
		if e.Tlocal > e.Tnuma*1.02 {
			t.Errorf("%s: Tlocal %.3f exceeds Tnuma %.3f", r.App, e.Tlocal, e.Tnuma)
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "ParMult") || !strings.Contains(out, "paper") {
		t.Errorf("render incomplete:\n%s", out)
	}
	if !strings.Contains(out, "na") {
		t.Errorf("ParMult α should render as na:\n%s", out)
	}
}

// TestTable4Shape is E6: NUMA-management overhead is small for all but
// Primes3 among the prime finders; FFT's absolute ΔS is large (in the
// paper it is second-largest). FFT's overhead *ratio* is not checked: at
// scaled problem sizes its compute shrinks much faster than its data, so
// the ratio is inflated relative to the paper's 449-second run (see
// EXPERIMENTS.md).
func TestTable4Shape(t *testing.T) {
	rows, err := Table4(small)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table4Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	p3 := byApp["Primes3"].DeltaPct
	if p3 < 5 {
		t.Errorf("Primes3 ΔS/Tnuma = %.1f%%, want substantial (paper: 24.9%%)", p3)
	}
	if p1 := byApp["Primes1"].DeltaPct; p1 >= p3/3 || p1 > 12 {
		t.Errorf("Primes1 ΔS/Tnuma = %.1f%%, want small and well below Primes3's %.1f%%", p1, p3)
	}
	if p2 := byApp["Primes2"].DeltaPct; p2 >= p3 {
		t.Errorf("Primes2 ΔS/Tnuma = %.1f%%, want below Primes3's %.1f%%", p2, p3)
	}
	// FFT moves a lot of pages before they pin: its absolute ΔS must be
	// the largest or second largest, as in the paper.
	var above int
	for _, r := range rows {
		if r.DeltaS > byApp["FFT"].DeltaS {
			above++
		}
	}
	if above > 1 {
		t.Errorf("FFT ΔS = %.2f ranks %d'th; want top two", byApp["FFT"].DeltaS, above+1)
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "Primes3") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFigures(t *testing.T) {
	f1, err := Figure1(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu0", "cpu3", "IPC bus"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure 1 missing %q", want)
		}
	}
	f2 := Figure2()
	for _, want := range []string{"pmap manager", "NUMA manager", "NUMA policy", "MMU interface"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Figure 2 missing %q", want)
		}
	}
}

// TestEvaluateEndToEnd: the three instrumented runs of §3.1 use the
// paper's policy, the two baselines and a one-thread, one-processor
// T_local, and Gfetch's invariants hold even at small sizes.
func TestEvaluateEndToEnd(t *testing.T) {
	opts := small
	opts.Policy = "neverpin" // for single-policy experiments; T_numa ignores it
	e, err := Evaluate(opts, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	if e.Workload != "Gfetch" {
		t.Errorf("workload = %q", e.Workload)
	}
	if e.Beta < 0.9 {
		t.Errorf("Gfetch β = %.2f, want ≈1", e.Beta)
	}
	if e.GOverL < 2.2 || e.GOverL > 2.4 {
		t.Errorf("fetch-heavy G/L = %.2f, want ≈2.3", e.GOverL)
	}
	if e.Tlocal <= 0 || e.Tnuma < e.Tlocal {
		t.Errorf("times inconsistent: %+v", e)
	}
	if e.LocalRun.NProc != 1 || e.LocalRun.Workers != 1 {
		t.Error("T_local run must use one thread on a one-processor machine")
	}
	if e.NumaRun.Policy != "threshold(4)" || e.GlobalRun.Policy != "all-global" || e.LocalRun.Policy != "all-local" {
		t.Errorf("policies = %s, %s, %s", e.NumaRun.Policy, e.GlobalRun.Policy, e.LocalRun.Policy)
	}
	// The cross-check: the true local fraction should be low for Gfetch.
	if e.MeasuredLocalFrac > 0.3 {
		t.Errorf("measured local fraction = %.2f, want near 0", e.MeasuredLocalFrac)
	}
}

// TestFalseSharingExperiment is E8.
func TestFalseSharingExperiment(t *testing.T) {
	r, err := FalseSharing(small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tuned.Alpha <= r.Untuned.Alpha {
		t.Errorf("tuning must raise α: untuned %.2f, tuned %.2f", r.Untuned.Alpha, r.Tuned.Alpha)
	}
	if r.Tuned.Alpha < 0.75 {
		t.Errorf("tuned α = %.2f, want high", r.Tuned.Alpha)
	}
	out := r.Render()
	if !strings.Contains(out, "0.66") || !strings.Contains(out, "untuned") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

// TestThresholdSweep is E9: with a threshold of 0 everything shared pins
// immediately (few moves); never-pin moves forever; the default sits
// between.
func TestThresholdSweep(t *testing.T) {
	rows, err := ThresholdSweep(small, "Primes3", []int{0, 4, -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	zero, def, never := rows[0], rows[1], rows[2]
	if zero.Moves > def.Moves {
		t.Errorf("threshold 0 moved pages %d times, more than threshold 4 (%d)", zero.Moves, def.Moves)
	}
	if never.Moves <= def.Moves {
		t.Errorf("never-pin moves (%d) should exceed threshold 4 (%d)", never.Moves, def.Moves)
	}
	if never.Pins != 0 {
		t.Errorf("never-pin pinned %d pages", never.Pins)
	}
	if zero.Pins == 0 {
		t.Error("threshold 0 pinned nothing")
	}
	out := RenderSweep("sweep", "threshold", rows)
	if !strings.Contains(out, "never-pin") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

// TestAffinityExperiment is E11: hopping processors destroys locality.
func TestAffinityExperiment(t *testing.T) {
	r, err := AffinityCompare(small, "Primes1")
	if err != nil {
		t.Fatal(err)
	}
	if r.AffLocal <= r.HopLocal {
		t.Errorf("affinity local fraction %.3f should exceed no-affinity %.3f", r.AffLocal, r.HopLocal)
	}
	if r.Hopping.UserSec < r.Affinity.UserSec {
		t.Errorf("no-affinity user time %.3f should not beat affinity %.3f", r.Hopping.UserSec, r.Affinity.UserSec)
	}
	if !strings.Contains(r.Render(), "affinity") {
		t.Error("render incomplete")
	}
}

// TestUnixMasterExperiment is E12.
func TestUnixMasterExperiment(t *testing.T) {
	r, err := UnixMasterCompare(small, "Syscaller")
	if err != nil {
		t.Fatal(err)
	}
	if r.OnLoc >= r.OffLoc {
		t.Errorf("unix-master should reduce locality: off %.3f, on %.3f", r.OffLoc, r.OnLoc)
	}
	if r.On.UserSec <= r.Off.UserSec {
		t.Errorf("unix-master should cost user time: off %.3f, on %.3f", r.Off.UserSec, r.On.UserSec)
	}
}

func TestPageSizeSweep(t *testing.T) {
	// IMatMult's matrices are a fixed number of bytes, so smaller pages
	// mean more logical pages and more pinning of the shared output.
	rows, err := PageSizeSweep(small, "IMatMult", []int{1024, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Pins <= rows[1].Pins {
		t.Errorf("smaller pages should pin more pages: %d vs %d", rows[0].Pins, rows[1].Pins)
	}
}

func TestGLSweep(t *testing.T) {
	rows, err := GLSweep(small, "Gfetch", []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Tnuma <= rows[0].Tnuma {
		t.Errorf("slower global memory should cost Gfetch user time: %.3f vs %.3f", rows[1].Tnuma, rows[0].Tnuma)
	}
}

func TestQuantumSweep(t *testing.T) {
	rows, err := QuantumSweep(small, "IMatMult", []sim.Time{50 * sim.Microsecond, 400 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Tnuma <= 0 {
			t.Errorf("quantum %s: no user time", r.Param)
		}
	}
}

// TestRemoteReferences exercises the §4.4 extension: pragma-placed pages
// at a home processor eliminate the protocol churn an asymmetric
// producer/consumer pattern otherwise causes.
func TestRemoteReferences(t *testing.T) {
	r, err := RemoteCompare(small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remote.SysSec >= r.Auto.SysSec/2 {
		t.Errorf("remote pragma sys %.3f should be far below automatic %.3f",
			r.Remote.SysSec, r.Auto.SysSec)
	}
	if r.Remote.NUMA.RemotePlaced == 0 {
		t.Error("no pages were remote-placed")
	}
	if !strings.Contains(r.Render(), "remote pragma") {
		t.Error("render incomplete")
	}
}

// TestReplicationAblation shows "the value of replicating data that is
// writable, but that is never written" (§3.2): without replication the
// read-shared input matrices bounce between readers.
func TestReplicationAblation(t *testing.T) {
	r, err := ReplicationCompare(small, "IMatMult")
	if err != nil {
		t.Fatal(err)
	}
	if r.Without.NUMA.Copies < 10*r.With.NUMA.Copies {
		t.Errorf("single-copy migration should copy far more: %d vs %d",
			r.Without.NUMA.Copies, r.With.NUMA.Copies)
	}
	if r.Without.SysSec < 5*r.With.SysSec {
		t.Errorf("single-copy sys time %.2f should dwarf replication's %.2f",
			r.Without.SysSec, r.With.SysSec)
	}
	if !strings.Contains(r.Render(), "single copy") {
		t.Error("render incomplete")
	}
}

// TestApplicationMix runs two applications concurrently on one machine,
// each in its own task: both must verify, and the mix's locality must stay
// high — the introduction's "locality needs of the entire application mix"
// claim.
func TestApplicationMix(t *testing.T) {
	r, err := MixRun(small, []string{"IMatMult", "Primes1"})
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalFrac < 0.8 {
		t.Errorf("mix local fraction = %.2f, want high", r.LocalFrac)
	}
	if r.UserSec <= 0 {
		t.Error("no user time")
	}
	out := r.Render()
	if !strings.Contains(out, "IMatMult + Primes1") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

// TestApplicationMixThreeWay piles on a third program.
func TestApplicationMixThreeWay(t *testing.T) {
	r, err := MixRun(Options{NProc: 6, Small: true}, []string{"ParMult", "Primes1", "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 3 {
		t.Errorf("apps = %v", r.Apps)
	}
}

// TestPolicyComparison: on a phase-changing workload, the PLATINUM-style
// freeze/defrost policy (with the manager's defrost daemon) recovers
// locality after the sharing phase ends, while the paper's
// never-reconsider threshold policy leaves the pages pinned (§4.3, §5).
func TestPolicyComparison(t *testing.T) {
	rows, err := PolicyCompare(small)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyRow{}
	for _, r := range rows {
		byName[strings.SplitN(r.Policy, "(", 2)[0]] = r
	}
	thr := byName["threshold"]
	fd := byName["freeze-defrost"]
	if fd.LocalFrac < 0.8 {
		t.Errorf("freeze-defrost local fraction = %.3f, want high after defrost", fd.LocalFrac)
	}
	if thr.LocalFrac > 0.5 {
		t.Errorf("threshold local fraction = %.3f, want low (pages stay pinned)", thr.LocalFrac)
	}
	if !strings.Contains(RenderPolicyCompare(rows), "phase-changing") {
		t.Error("render incomplete")
	}
}

// TestTable3AtDefaultSizes re-checks the headline bands at the real
// (non-Small) problem sizes; skipped under -short.
func TestTable3AtDefaultSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("default-size run")
	}
	rows, err := Table3(Options{NProc: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		e, p := r.Eval, r.Paper
		switch r.App {
		case "ParMult":
			continue
		case "Gfetch":
			if e.Gamma < 2.1 || e.Gamma > 2.4 {
				t.Errorf("Gfetch γ=%.2f", e.Gamma)
			}
		case "Primes3":
			if e.Alpha > 0.4 || e.Gamma < 1.15 {
				t.Errorf("Primes3 α=%.2f γ=%.2f", e.Alpha, e.Gamma)
			}
		default:
			if e.Alpha < 0.85 {
				t.Errorf("%s α=%.2f, paper %.2f", r.App, e.Alpha, p.Alpha)
			}
			if e.Gamma > 1.08 {
				t.Errorf("%s γ=%.2f, paper %.2f", r.App, e.Gamma, p.Gamma)
			}
		}
	}
}

// TestAlphaModelAgainstGroundTruth validates the paper's indirect
// methodology: α is derived from three timing runs (equation 4) because
// 1989 hardware could not count per-processor reference destinations
// ("Conventional memory-management systems provide no way to measure the
// relative frequencies of references from processors to pages", §4.4).
// The simulator counts them, so we can check that the timing-derived α
// agrees with the true local fraction.
func TestAlphaModelAgainstGroundTruth(t *testing.T) {
	rows, err := Table3(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		e := r.Eval
		switch r.App {
		case "ParMult":
			continue // α undefined (β = 0)
		case "Primes3":
			// Low-α apps: counted fraction includes the read-only sharing
			// that the paper notes its α cannot separate; only the order
			// of magnitude is comparable.
			if e.Alpha > 0.5 && e.MeasuredLocalFrac < 0.5 {
				t.Errorf("Primes3: α %.2f vs counted %.2f disagree grossly", e.Alpha, e.MeasuredLocalFrac)
			}
		default:
			if diff := e.Alpha - e.MeasuredLocalFrac; diff > 0.15 || diff < -0.15 {
				t.Errorf("%s: timing-derived α %.2f vs counted local fraction %.2f differ by %.2f",
					r.App, e.Alpha, e.MeasuredLocalFrac, diff)
			}
		}
	}
}

// TestEightProcessorConfig runs the mix on the ACE's maximum backplane
// configuration (8 processor modules, §2.2).
func TestEightProcessorConfig(t *testing.T) {
	r, err := MixRun(Options{NProc: 8, Small: true}, []string{"IMatMult", "FFT"})
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalFrac < 0.8 {
		t.Errorf("8-CPU mix local fraction = %.2f", r.LocalFrac)
	}
}

// TestSystemDeterminism: the entire evaluation pipeline is deterministic —
// two independent runs produce bitwise-identical timings and statistics.
func TestSystemDeterminism(t *testing.T) {
	run := func() Table3Row {
		r, err := Table3Single(Options{NProc: 3, Small: true}, "IMatMult")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Eval.Tnuma != b.Eval.Tnuma || a.Eval.Tglobal != b.Eval.Tglobal ||
		a.Eval.Alpha != b.Eval.Alpha || a.Eval.NumaRun.Faults != b.Eval.NumaRun.Faults ||
		a.Eval.NumaRun.NUMA != b.Eval.NumaRun.NUMA {
		t.Errorf("runs differ:\n%+v\n%+v", a.Eval.NumaRun, b.Eval.NumaRun)
	}
}

// TestInstanceSizes pins how the options size every nameable application,
// in any spelling: -small builds the reduced size where the application
// has one and wins over -size, -size wins over the default, and Phased
// and Zipf have no reduced size.
func TestInstanceSizes(t *testing.T) {
	const n = 64
	cases := []struct {
		name              string
		small, sized, def workloads.Workload // small nil: none
	}{
		{"ParMult", workloads.NewParMult(60, 80), workloads.NewParMult(n, 0), workloads.NewParMult(0, 0)},
		{"Gfetch", workloads.NewGfetch(12, 4), workloads.NewGfetch(n, 0), workloads.NewGfetch(0, 0)},
		{"IMatMult", workloads.NewIMatMult(24), workloads.NewIMatMult(n), workloads.NewIMatMult(0)},
		{"Primes1", workloads.NewPrimes1(4000), workloads.NewPrimes1(n), workloads.NewPrimes1(0)},
		{"Primes2", workloads.NewPrimes2(8000, true), workloads.NewPrimes2(n, true), workloads.NewPrimes2(0, true)},
		{"Primes2-untuned", workloads.NewPrimes2(8000, false), workloads.NewPrimes2(n, false), workloads.NewPrimes2(0, false)},
		{"Primes3", workloads.NewPrimes3(60000), workloads.NewPrimes3(n), workloads.NewPrimes3(0)},
		{"FFT", workloads.NewFFT(32), workloads.NewFFT(n), workloads.NewFFT(0)},
		{"PlyTrace", workloads.NewPlyTrace(160, 128, 128), workloads.NewPlyTrace(n, 0, 0), workloads.NewPlyTrace(0, 0, 0)},
		{"Syscaller", workloads.NewSyscaller(1200, 40), workloads.NewSyscaller(n, 0), workloads.NewSyscaller(0, 0)},
		{"Phased", nil, workloads.NewPhased(n, 0, 0), workloads.NewPhased(0, 0, 0)},
		{"Zipf", nil, workloads.NewZipf(n, 0, 0), workloads.NewZipf(0, 0, 0)},
	}
	for _, c := range cases {
		smallOnly, smallSized := c.small, c.small
		if c.small == nil {
			smallOnly, smallSized = c.def, c.sized
		}
		forms := []struct {
			opts Options
			want workloads.Workload
		}{
			{Options{}, c.def},
			{Options{AppSize: n}, c.sized},
			{Options{Small: true}, smallOnly},
			{Options{Small: true, AppSize: n}, smallSized},
		}
		for _, name := range []string{c.name, strings.ToLower(c.name)} {
			for _, f := range forms {
				got, err := f.opts.instance(name)
				if err != nil {
					t.Errorf("instance(%q) with Small=%v AppSize=%d: %v", name, f.opts.Small, f.opts.AppSize, err)
					continue
				}
				if !reflect.DeepEqual(got, f.want) {
					t.Errorf("instance(%q) with Small=%v AppSize=%d = %+v, want %+v",
						name, f.opts.Small, f.opts.AppSize, got, f.want)
				}
			}
		}
	}
}
