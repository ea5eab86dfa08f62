package chaos

import (
	"testing"

	"numasim/internal/sim"
)

// schedule records every decision an injector makes over a fixed query
// sequence, so two injectors can be compared draw for draw.
func schedule(in *Injector) []bool {
	var s []bool
	for step := 0; step < 200; step++ {
		now := sim.Time(step) * 10 * sim.Microsecond
		proc := step % 4
		s = append(s, in.FailLocalAlloc(now, proc))
		s = append(s, in.MoveDelay(now, proc) > 0)
	}
	return s
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, FailProb: 0.05, DelayProb: 0.10,
		Backoff: DefaultBackoff, MoveDelay: DefaultMoveDelay, MaxRetries: DefaultMaxRetries}
	a, b := schedule(New(cfg)), schedule(New(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestInjectorSeedsDiffer(t *testing.T) {
	cfg := Config{Seed: 1, FailProb: 0.5, DelayProb: 0.5,
		Backoff: DefaultBackoff, MoveDelay: DefaultMoveDelay, MaxRetries: 3}
	a := schedule(New(cfg))
	cfg.Seed = 2
	b := schedule(New(cfg))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical schedules")
	}
}

func TestInjectorRates(t *testing.T) {
	cfg := Config{Seed: 7, FailProb: 0.5, DelayProb: 0.5,
		Backoff: DefaultBackoff, MoveDelay: DefaultMoveDelay, MaxRetries: 3}
	// schedule alternates one allocation draw and one move draw.
	var failures, delays int
	for i, fired := range schedule(New(cfg)) {
		switch {
		case fired && i%2 == 0:
			failures++
		case fired:
			delays++
		}
	}
	// 200 draws each at p=0.5: expect roughly 100, accept a wide band.
	if failures < 60 || failures > 140 {
		t.Errorf("failures = %d, want ~100", failures)
	}
	if delays < 60 || delays > 140 {
		t.Errorf("delays = %d, want ~100", delays)
	}
}

func TestInjectorZeroProbInjectsNothing(t *testing.T) {
	for _, fired := range schedule(New(Config{Seed: 9})) {
		if fired {
			t.Fatal("zero-probability config injected a fault")
		}
	}
}

func TestMoveDelayBounds(t *testing.T) {
	cfg := Config{Seed: 3, DelayProb: 1, MoveDelay: 50 * sim.Microsecond}
	in := New(cfg)
	for step := 0; step < 100; step++ {
		d := in.MoveDelay(sim.Time(step)*sim.Microsecond, step%4)
		if d <= 0 || d > cfg.MoveDelay {
			t.Fatalf("delay %v outside (0, %v]", d, cfg.MoveDelay)
		}
	}
}

func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	in := New(Config{Backoff: sim.Microsecond})
	if got := in.RetryBackoff(0); got != sim.Microsecond {
		t.Errorf("attempt 0 backoff = %v", got)
	}
	if got := in.RetryBackoff(3); got != 8*sim.Microsecond {
		t.Errorf("attempt 3 backoff = %v", got)
	}
	if got := in.RetryBackoff(40); got != in.RetryBackoff(16) {
		t.Errorf("uncapped shift: %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{FailProb: -0.1},
		{FailProb: 1.5},
		{DelayProb: 2},
		{MaxRetries: -1},
		{Backoff: -sim.Microsecond},
		{MoveDelay: -sim.Microsecond},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if (Config{Seed: 5}).Enabled() {
		t.Error("seed-only config enabled")
	}
	if !(Config{FailProb: 0.1}).Enabled() || !(Config{DelayProb: 0.1}).Enabled() {
		t.Error("probability-bearing config disabled")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	New(Config{FailProb: 2})
}
