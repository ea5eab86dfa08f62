package metrics_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/cthreads"
	"numasim/internal/mem"
	"numasim/internal/metrics"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

func TestDeriveMatchesPaperRows(t *testing.T) {
	// Feed the paper's own published times through equations (1), (4), (5)
	// and check we recover the published α, β, γ.
	cases := []struct {
		name                   string
		tGlobal, tNuma, tLocal sim.Ticks
		gOverL                 float64
		alpha, beta, gamma     float64
	}{
		// Note: the paper prints β=0.26 for IMatMult, but its published
		// times give (82.1−68.2)/68.2 · 1/1.3 ≈ 0.157 under the G/L=2.3
		// convention its footnote 3 assigns to IMatMult (and ≈0.20 under
		// G/L=2). We check the value equation (5) actually yields; see
		// EXPERIMENTS.md.
		{"IMatMult", 82.1, 69.0, 68.2, 2.3, 0.94, 0.157, 1.01},
		{"Primes3", 39.1, 37.4, 28.8, 2.0, 0.17, 0.36, 1.30},
		{"FFT", 687.4, 449.0, 438.4, 2.0, 0.96, 0.57, 1.02},
		{"Gfetch", 60.2, 60.2, 26.5, 2.3, 0.0, 0.98, 2.27},
	}
	for _, c := range cases {
		alpha, beta, gamma := metrics.Derive(c.tGlobal, c.tNuma, c.tLocal, c.gOverL)
		if math.Abs(alpha-c.alpha) > 0.02 {
			t.Errorf("%s: α = %.3f, want %.2f", c.name, alpha, c.alpha)
		}
		if math.Abs(beta-c.beta) > 0.02 {
			t.Errorf("%s: β = %.3f, want %.2f", c.name, beta, c.beta)
		}
		if math.Abs(gamma-c.gamma) > 0.01 {
			t.Errorf("%s: γ = %.3f, want %.2f", c.name, gamma, c.gamma)
		}
	}
}

func TestDeriveDegenerate(t *testing.T) {
	// T_global == T_local: β is 0 and α undefined (reported 0).
	alpha, beta, gamma := metrics.Derive(10, 10, 10, 2)
	if alpha != 0 || beta != 0 || gamma != 1 {
		t.Errorf("degenerate derive = %v %v %v", alpha, beta, gamma)
	}
}

func TestDeriveClamps(t *testing.T) {
	// Measurement noise can push Tnuma slightly outside [Tlocal, Tglobal];
	// α must stay in [0, 1].
	alpha, _, _ := metrics.Derive(10, 10.5, 9, 2)
	if alpha != 0 {
		t.Errorf("α = %v, want clamped to 0", alpha)
	}
	alpha, _, _ = metrics.Derive(10, 8.5, 9, 2)
	if alpha != 1 {
		t.Errorf("α = %v, want clamped to 1", alpha)
	}
}

func TestRunCollectsEverything(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 512
	cfg.LocalFrames = 256
	res, err := metrics.Run(metrics.RunSpec{
		Config: cfg, Policy: policy.NewDefault(), Workers: 3, Sched: sched.Affinity,
	}, workloads.NewIMatMult(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "IMatMult" || res.Policy != "threshold(4)" || res.NProc != 3 {
		t.Errorf("identity fields: %+v", res)
	}
	if res.UserSec <= 0 || res.SysSec <= 0 {
		t.Error("no time accounted")
	}
	if res.Refs.Total() == 0 || res.Faults == 0 {
		t.Error("no activity counted")
	}
}

func TestRunPropagatesWorkloadErrors(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 1
	cfg.GlobalFrames = 2 // far too small: forces pageout storms; still works
	cfg.LocalFrames = 2
	// A workload that fails verification is impossible to fake here, so
	// instead check the error path with an impossible machine: zero
	// processors fails config validation, which Run must surface.
	cfg.NProc = 0
	_, err := metrics.Run(metrics.RunSpec{
		Config: cfg, Policy: policy.NewDefault(), Workers: 1, Sched: sched.Affinity,
	}, workloads.NewParMult(2, 2))
	if err == nil {
		t.Error("want error from invalid config")
	}
}

// failVerify runs its workload and then fails its verification.
type failVerify struct{ workloads.Workload }

func (w failVerify) Start(rt *cthreads.Runtime, nworkers int) func() error {
	w.Workload.Start(rt, nworkers)
	return func() error { return errors.New("verification failed") }
}

// TestRunClosesMemory: Run closes its machine's memory once the run is
// over, whether the run succeeds, its verification fails or the engine
// returns an error. Gfetch over 80 pages makes about 160 frame records,
// and the chaos panic at 40 ms comes after about 110, so on Linux each
// run has made its memory's mapping (past the first 64 records) before
// Run closes it.
func TestRunClosesMemory(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 256
	cfg.LocalFrames = 128
	for _, c := range []struct {
		name    string
		w       workloads.Workload
		chaos   chaos.Config
		wantErr string
	}{
		{"success", workloads.NewGfetch(80, 1), chaos.Config{}, ""},
		{"verification fails", failVerify{workloads.NewGfetch(80, 1)}, chaos.Config{}, "verification failed"},
		{"engine fails", workloads.NewGfetch(80, 1), chaos.Config{Seed: 1, PanicAt: 40 * sim.Millisecond}, "injected panic"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var memory *mem.Memory
			_, err := metrics.Run(metrics.RunSpec{
				Config: cfg, Policy: policy.NewDefault(), Workers: 2, Sched: sched.Affinity, Chaos: c.chaos,
				OnMachine: func(m *ace.Machine) { memory = m.Memory() },
			}, c.w)
			if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("Run returned %v, want an error containing %q", err, c.wantErr)
			}
			if inUse := memory.Global().Size() - memory.Global().Free(); inUse < 40 {
				t.Errorf("the run holds %d global frames, want at least 40", inUse)
			}
			if !memory.Closed() {
				t.Error("Run left its memory open")
			}
		})
	}
}
