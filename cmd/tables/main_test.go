package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
}

func TestProtocolTables(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-table", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 1") || !strings.Contains(out.String(), "sync&flush") {
		t.Errorf("Table 1 output unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-table", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 2") {
		t.Errorf("Table 2 output unexpected:\n%s", out.String())
	}
}

func TestFigures(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-figure", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("Figure 1 output unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-figure", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Errorf("Figure 2 output unexpected:\n%s", out.String())
	}
}

func TestTimingReportsEventCounts(t *testing.T) {
	// -timing diagnostics go to stderr only; the table on stdout must be
	// byte-identical with and without it.
	var plain, plainErr strings.Builder
	if code := run([]string{"-small", "-table", "3"}, &plain, &plainErr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, plainErr.String())
	}
	var timed, timedErr strings.Builder
	if code := run([]string{"-small", "-table", "3", "-timing"}, &timed, &timedErr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, timedErr.String())
	}
	if plain.String() != timed.String() {
		t.Error("-timing changed the table output")
	}
	se := timedErr.String()
	if !strings.Contains(se, "wall time") || !strings.Contains(se, "trace events") {
		t.Errorf("-timing should report wall time and event counts on stderr, got: %s", se)
	}
	for _, kind := range []string{"action", "state-change", "dispatch"} {
		if !strings.Contains(se, kind) {
			t.Errorf("-timing breakdown missing %q:\n%s", kind, se)
		}
	}
}

func TestExperimentList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, name := range []string{"table3", "pressuresweep", "falsesharing"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("experiment list missing %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "nonsense"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "nonsense") {
		t.Errorf("stderr should name the unknown experiment, got: %s", errb.String())
	}
}

func TestPressureSweepExperiment(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-small", "-nproc", "3", "-exp", "pressuresweep",
		"-app", "FFT", "-frames", "4,2"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Memory pressure") ||
		!strings.Contains(out.String(), "unbounded") {
		t.Errorf("pressure table unexpected:\n%s", out.String())
	}

	// The same sweep as CSV.
	var csv strings.Builder
	if code := run(append(args, "-csv"), &csv, &errb); code != 0 {
		t.Fatalf("csv exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(csv.String(), "app,local_frames,") {
		t.Errorf("csv output unexpected:\n%s", csv.String())
	}
}

func TestPressureSweepChaosDeterminism(t *testing.T) {
	args := []string{"-small", "-nproc", "3", "-exp", "pressuresweep",
		"-app", "IMatMult", "-frames", "4",
		"-chaos-seed", "42", "-chaos-fail", "0.2", "-chaos-delay", "0.2"}
	var a, b, errb strings.Builder
	if code := run(append(args, "-parallel", "1"), &a, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if code := run(append(args, "-parallel", "4"), &b, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if a.String() != b.String() {
		t.Errorf("chaos run differs across -parallel:\n-parallel 1:\n%s\n-parallel 4:\n%s",
			a.String(), b.String())
	}
	if !strings.Contains(a.String(), "Memory pressure") {
		t.Errorf("pressure table missing:\n%s", a.String())
	}
}

func TestBadFramesFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "pressuresweep", "-frames", "4,zero"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
}

func TestBadChaosConfigFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "pressuresweep", "-chaos-fail", "1.5"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
}

// TestReproducesAblate: the ablations run through the registry print the
// bytes the retired ablate command printed (testdata holds its stdout,
// captured with -small -nproc 3 -parallel 1 -app IMatMult). ablate ran
// affinity on Primes1 and the Unix master on Syscaller whatever -app
// said, so those cases name their application. The threshold sweep's
// title changed on the move, so it is compared as CSV, which ablate
// followed with one blank line.
func TestReproducesAblate(t *testing.T) {
	base := []string{"-small", "-nproc", "3", "-parallel", "1", "-app", "IMatMult"}
	for _, c := range []struct {
		golden string
		args   []string
		suffix string
	}{
		{"ablate_sweep_pagesize.golden", []string{"-exp", "pagesize"}, ""},
		{"ablate_sweep_gl.golden", []string{"-exp", "glsweep"}, ""},
		{"ablate_sweep_quantum.golden", []string{"-exp", "quantumsweep"}, ""},
		{"ablate_sweep_threshold_csv.golden", []string{"-exp", "thresholdsweep", "-csv"}, "\n"},
		{"ablate_exp_unixmaster.golden", []string{"-exp", "unixmaster", "-app", "Syscaller"}, ""},
		{"ablate_exp_mix.golden", []string{"-exp", "mix"}, ""},
		{"ablate_exp_affinity.golden", []string{"-exp", "affinity", "-app", "Primes1"}, ""},
		{"ablate_exp_remote.golden", []string{"-exp", "remote"}, ""},
		{"ablate_exp_replication.golden", []string{"-exp", "replication"}, ""},
		{"ablate_exp_policies.golden", []string{"-exp", "policycompare"}, ""},
	} {
		var out, errb strings.Builder
		args := append(append([]string{}, base...), c.args...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0; stderr: %s", args, code, errb.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String() + c.suffix; got != string(want) {
			t.Errorf("%v diverged from %s.\ngot:\n%s\nwant:\n%s", args, c.golden, got, want)
		}
	}
}

// TestSweepTimingCountsEvents: the sweeps attach the -timing sink to
// every machine they build, like the evaluation tables do.
func TestSweepTimingCountsEvents(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-small", "-nproc", "3", "-exp", "thresholdsweep", "-timing"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	m := regexp.MustCompile(`(?m)^\s*dispatch\s+(\d+)`).FindStringSubmatch(errb.String())
	if m == nil || m[1] == "0" {
		t.Errorf("-timing reported no dispatch events for the sweep:\n%s", errb.String())
	}
}
