package workloads_test

import (
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/cthreads"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/vm"
	"numasim/internal/workloads"
)

// newRT builds a small machine and C-Threads runtime.
func newRT(nproc int, pol numa.Policy) *cthreads.Runtime {
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 2048
	cfg.LocalFrames = 1024
	k := vm.NewKernel(ace.MustMachine(cfg), pol)
	return cthreads.NewShared(k, sched.New(k, sched.Affinity))
}

// tiny returns small instances of every workload (fast enough to run under
// several policies in tests), then each prime finder at limits 1 to 4,
// where the seed range, the candidate range or the sieve may be empty.
func tiny() []workloads.Workload {
	ws := []workloads.Workload{
		workloads.NewParMult(40, 50),
		workloads.NewGfetch(8, 3),
		workloads.NewIMatMult(16),
		workloads.NewPrimes1(2000),
		workloads.NewPrimes2(2000, true),
		workloads.NewPrimes2(2000, false),
		workloads.NewPrimes3(20000),
		workloads.NewFFT(16),
		workloads.NewPlyTrace(72, 48, 48),
	}
	for limit := uint32(1); limit <= 4; limit++ {
		ws = append(ws,
			workloads.NewPrimes1(limit),
			workloads.NewPrimes2(limit, true),
			workloads.NewPrimes2(limit, false),
			workloads.NewPrimes3(limit))
	}
	return ws
}

// TestWorkloadsComputeCorrectResults runs every workload under the paper's
// default policy on 4 processors; each workload verifies its own output.
func TestWorkloadsComputeCorrectResults(t *testing.T) {
	for _, w := range tiny() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rt := newRT(4, policy.NewDefault())
			if err := workloads.Run(w, rt, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadsUnderBaselinePolicies runs every workload under the
// all-global policy (the T_global instrumentation run) and single-threaded
// under all-local (the T_local run): results must stay correct.
func TestWorkloadsUnderBaselinePolicies(t *testing.T) {
	for _, w := range tiny() {
		w := w
		t.Run(w.Name()+"/all-global", func(t *testing.T) {
			rt := newRT(4, policy.AllGlobal{})
			if err := workloads.Run(w, rt, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, w := range tiny() {
		w := w
		t.Run(w.Name()+"/all-local-1cpu", func(t *testing.T) {
			rt := newRT(1, policy.AllLocal{})
			if err := workloads.Run(w, rt, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadsNeverPin stresses the protocol with endless migration.
func TestWorkloadsNeverPin(t *testing.T) {
	for _, w := range []workloads.Workload{
		workloads.NewGfetch(4, 2),
		workloads.NewIMatMult(12),
		workloads.NewPrimes3(5000),
	} {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rt := newRT(3, policy.NeverPin())
			if err := workloads.Run(w, rt, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	names := workloads.Names()
	want := []string{"ParMult", "Gfetch", "IMatMult", "Primes1", "Primes2", "Primes3", "FFT", "PlyTrace"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Names() = %v, want %v", names, want)
	}
	for _, n := range append(want, "Primes2-untuned", "Syscaller", "Phased", "Zipf") {
		for _, spelling := range []string{n, strings.ToLower(n)} {
			for _, small := range []bool{false, true} {
				w, err := workloads.New(spelling, 0, small)
				if err != nil {
					t.Errorf("New(%q, 0, %v): %v", spelling, small, err)
					continue
				}
				if w.Name() != n {
					t.Errorf("New(%q, 0, %v).Name() = %q", spelling, small, w.Name())
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		size int
		err  string
	}{
		{"nosuch", 0, `workloads: unknown workload "nosuch"`},
		{"Gfetch", -1, "workloads: negative size -1"},
		{"FFT", 100, "workloads: FFT size 100 is not a power of two"},
		{"fft", 100, "workloads: FFT size 100 is not a power of two"},
	} {
		if _, err := workloads.New(tc.name, tc.size, false); err == nil || !strings.HasPrefix(err.Error(), tc.err) {
			t.Errorf("New(%q, %d, false) = %v, want error %q", tc.name, tc.size, err, tc.err)
		}
	}
	if w, err := workloads.New("FFT", 100, true); err != nil || w.(*workloads.FFT).S != 32 {
		t.Errorf("New(FFT, 100, small) = %v, %v; -small must win over the size", w, err)
	}
}

func TestFetchHeavyFlags(t *testing.T) {
	// §3.2 footnote 3: Gfetch and IMatMult use G/L = 2.3; the rest use ~2.
	for _, w := range workloads.All() {
		want := w.Name() == "Gfetch" || w.Name() == "IMatMult"
		if w.FetchHeavy() != want {
			t.Errorf("%s.FetchHeavy() = %v, want %v", w.Name(), w.FetchHeavy(), want)
		}
	}
}

// TestGfetchExtremes is E7: under the paper's policy on several CPUs,
// Gfetch's pages end up pinned in global memory and essentially all fetch
// traffic is global (α≈0); ParMult performs almost no data references.
func TestGfetchExtremes(t *testing.T) {
	g := workloads.NewGfetch(8, 6)
	rt := newRT(4, policy.NewDefault())
	if err := workloads.Run(g, rt, 4); err != nil {
		t.Fatal(err)
	}
	refs := rt.Kernel().Machine().TotalRefs()
	localFrac := refs.LocalFraction()
	if localFrac > 0.25 {
		t.Errorf("Gfetch local fraction = %.2f, want near 0 (pages should pin global)", localFrac)
	}
	if pins := rt.Kernel().NUMA().Stats().Pins; pins < 8 {
		t.Errorf("pins = %d, want at least one per data page", pins)
	}

	p := workloads.NewParMult(200, 200)
	rt2 := newRT(4, policy.NewDefault())
	if err := workloads.Run(p, rt2, 4); err != nil {
		t.Fatal(err)
	}
	refs2 := rt2.Kernel().Machine().TotalRefs()
	// ParMult's only references are workload allocation: their time must
	// be invisible next to the multiplication work (β ≈ 0).
	refTime := float64(refs2.Total()) * 2e-6
	userTime := rt2.Kernel().Machine().Engine().TotalUserTime().Seconds()
	if frac := refTime / userTime; frac > 0.05 {
		t.Errorf("ParMult spends %.1f%% of user time on memory references, want < 5%%", frac*100)
	}
}

// TestPrimes2FalseSharing is E8: the untuned Primes2 reads its divisors
// from the writably-shared output vector and so makes far more global
// references than the tuned version, which copies divisors to private
// memory first (α 0.66 -> 1.00 in §4.2).
func TestPrimes2FalseSharing(t *testing.T) {
	run := func(tuned bool) float64 {
		w := workloads.NewPrimes2(20000, tuned)
		rt := newRT(4, policy.NewDefault())
		if err := workloads.Run(w, rt, 4); err != nil {
			t.Fatal(err)
		}
		refs := rt.Kernel().Machine().TotalRefs()
		return refs.LocalFraction()
	}
	tuned := run(true)
	untuned := run(false)
	if tuned <= untuned {
		t.Errorf("tuned local fraction %.3f should exceed untuned %.3f", tuned, untuned)
	}
	if tuned < 0.8 {
		t.Errorf("tuned Primes2 local fraction = %.3f, want > 0.8", tuned)
	}
	if untuned > tuned-0.15 {
		t.Errorf("untuned Primes2 local fraction = %.3f, want well below tuned %.3f", untuned, tuned)
	}
}

// TestIMatMultReplication: the input matrices are read-only after
// initialization and must be replicated (read mostly local), while the
// output pages become globally pinned.
func TestIMatMultReplication(t *testing.T) {
	w := workloads.NewIMatMult(24)
	rt := newRT(4, policy.NewDefault())
	if err := workloads.Run(w, rt, 4); err != nil {
		t.Fatal(err)
	}
	refs := rt.Kernel().Machine().TotalRefs()
	if lf := refs.LocalFraction(); lf < 0.8 {
		t.Errorf("IMatMult local fraction = %.3f, want > 0.8 (inputs replicate)", lf)
	}
	if pins := rt.Kernel().NUMA().Stats().Pins; pins == 0 {
		t.Error("no pages pinned; the shared output matrix should pin")
	}
}

// TestFFTMostlyPrivateReferences checks the Baylor-Rathi finding the paper
// cites for EPEX FFT: "about 95% of its data references were to private
// memory". In our terms, the T_numa run's references are overwhelmingly
// local (private workspace + replicated shared pages).
func TestFFTMostlyPrivateReferences(t *testing.T) {
	w := workloads.NewFFT(32)
	rt := newRT(4, policy.NewDefault())
	if err := workloads.Run(w, rt, 4); err != nil {
		t.Fatal(err)
	}
	refs := rt.Kernel().Machine().TotalRefs()
	if lf := refs.LocalFraction(); lf < 0.9 {
		t.Errorf("FFT local fraction = %.3f, want >= 0.9 (Baylor-Rathi: ~95%% private)", lf)
	}
}

// TestLargerScale runs three applications at sizes closer to the paper's
// (skipped under -short): correctness must hold at scale, not just on the
// tiny test instances.
func TestLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large run")
	}
	for _, w := range []workloads.Workload{
		workloads.NewIMatMult(160),
		workloads.NewFFT(128),
		workloads.NewPrimes3(2000000),
	} {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rt := newRT(7, policy.NewDefault())
			if err := workloads.Run(w, rt, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryAppUnderEveryPolicy is the robustness matrix: every application
// must compute correct results under every placement policy, including the
// extensions.
func TestEveryAppUnderEveryPolicy(t *testing.T) {
	pols := []func() numa.Policy{
		func() numa.Policy { return policy.NewPragma(nil) },
		func() numa.Policy { return policy.NewReconsider(2, 4) },
		func() numa.Policy { return policy.NewFreezeDefrost(0, 0) },
	}
	for _, mk := range pols {
		for _, w := range tiny() {
			w, pol := w, mk()
			t.Run(pol.Name()+"/"+w.Name(), func(t *testing.T) {
				rt := newRT(3, pol)
				if err := workloads.Run(w, rt, 3); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
