package harness

import (
	"strings"
	"testing"

	"numasim/internal/chaos"
)

// TestPressureSweepShape: rows come out app-major with the unconstrained
// baseline first, the baseline's slowdown is exactly 1, and a local-heavy
// application under a tight budget really does evict.
func TestPressureSweepShape(t *testing.T) {
	opts := Options{NProc: 3, Small: true}
	rows, err := PressureSweepAll(opts, []string{"FFT"}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (baseline + two budgets)", len(rows))
	}
	if rows[0].LocalFrames != 0 || rows[1].LocalFrames != 4 || rows[2].LocalFrames != 2 {
		t.Errorf("budget order wrong: %d, %d, %d",
			rows[0].LocalFrames, rows[1].LocalFrames, rows[2].LocalFrames)
	}
	if rows[0].Slowdown != 1 {
		t.Errorf("baseline slowdown = %v, want exactly 1", rows[0].Slowdown)
	}
	if rows[0].Evictions != 0 {
		t.Errorf("unconstrained baseline evicted %d times", rows[0].Evictions)
	}
	if rows[2].Evictions == 0 {
		t.Error("FFT under 2 local frames never evicted")
	}
	if rows[2].Slowdown < rows[0].Slowdown {
		t.Errorf("slowdown %v under pressure beats the unconstrained run", rows[2].Slowdown)
	}
	out := RenderPressure(rows)
	if !strings.Contains(out, "unbounded") || !strings.Contains(out, "FFT") {
		t.Errorf("rendered table incomplete:\n%s", out)
	}
	csv := RenderPressureCSV(rows)
	if got := strings.Count(csv, "\n"); got != 4 {
		t.Errorf("CSV has %d lines, want header + 3 rows", got)
	}
}

// TestPressureSweepAllCoversEveryApp: with no app list the sweep measures
// the paper's whole Table 3 mix, each application's rows contiguous.
func TestPressureSweepAllCoversEveryApp(t *testing.T) {
	opts := Options{NProc: 3, Small: true}
	rows, err := PressureSweepAll(opts, nil, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(Table3Apps) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*len(Table3Apps))
	}
	for i, app := range Table3Apps {
		if rows[2*i].App != app || rows[2*i+1].App != app {
			t.Errorf("rows %d,%d should both be %s", 2*i, 2*i+1, app)
		}
	}
}

// TestPressureSweepParallelDeterminism: with a fixed chaos seed the
// rendered sweep is byte-identical whether the runs execute sequentially
// or four at a time — the fault schedule lives in virtual time, not in
// host scheduling.
func TestPressureSweepParallelDeterminism(t *testing.T) {
	cc := chaos.Config{Seed: 42, FailProb: 0.2, DelayProb: 0.2,
		MaxRetries: chaos.DefaultMaxRetries, Backoff: chaos.DefaultBackoff,
		MoveDelay: chaos.DefaultMoveDelay}
	seq := Options{NProc: 3, Small: true, Parallelism: 1, Chaos: cc}
	par := Options{NProc: 3, Small: true, Parallelism: 4, Chaos: cc}

	a, err := PressureSweepAll(seq, []string{"IMatMult"}, []int{16, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PressureSweepAll(par, []string{"IMatMult"}, []int{16, 4})
	if err != nil {
		t.Fatal(err)
	}
	if RenderPressure(a) != RenderPressure(b) {
		t.Errorf("sweep differs between sequential and parallel runs:\nsequential:\n%s\nparallel:\n%s",
			RenderPressure(a), RenderPressure(b))
	}
	if RenderPressureCSV(a) != RenderPressureCSV(b) {
		t.Error("CSV rendering differs between sequential and parallel runs")
	}
	var faults uint64
	for _, r := range a {
		faults += r.ChaosFaults
	}
	if faults == 0 {
		t.Error("20% failure injection produced no chaos faults")
	}
}

// TestPressureSweepChaosDisabledIsInert: a chaos config that injects
// nothing (seed set, probabilities zero) must leave the sweep
// byte-identical to a run with no chaos config at all.
func TestPressureSweepChaosDisabledIsInert(t *testing.T) {
	plain := Options{NProc: 3, Small: true}
	seeded := Options{NProc: 3, Small: true, Chaos: chaos.Config{Seed: 99}}

	a, err := PressureSweepAll(plain, []string{"Gfetch"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PressureSweepAll(seeded, []string{"Gfetch"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if RenderPressure(a) != RenderPressure(b) {
		t.Errorf("disabled chaos changed the sweep:\nplain:\n%s\nseeded:\n%s",
			RenderPressure(a), RenderPressure(b))
	}
}

// TestPressureSweepSeedsDiffer: two different chaos seeds at real
// injection rates must produce different measurements — otherwise the
// injector is not actually consulted.
func TestPressureSweepSeedsDiffer(t *testing.T) {
	mk := func(seed int64) Options {
		return Options{NProc: 3, Small: true, Chaos: chaos.Config{
			Seed: seed, FailProb: 0.3, DelayProb: 0.3,
			MaxRetries: chaos.DefaultMaxRetries, Backoff: chaos.DefaultBackoff,
			MoveDelay: chaos.DefaultMoveDelay}}
	}
	a, err := PressureSweepAll(mk(1), []string{"IMatMult"}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PressureSweepAll(mk(2), []string{"IMatMult"}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if RenderPressure(a) == RenderPressure(b) {
		t.Error("seeds 1 and 2 produced byte-identical sweeps")
	}
}
