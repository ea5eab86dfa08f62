package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage") && !strings.Contains(errb.String(), "flag") {
		t.Errorf("stderr should show usage, got: %s", errb.String())
	}
}

func TestUnknownAppFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-app", "NoSuchApp"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "NoSuchApp") {
		t.Errorf("stderr should name the unknown app, got: %s", errb.String())
	}
}

func TestUnknownPolicyFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-app", "FFT", "-size", "16", "-policy", "bogus"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "bogus") {
		t.Errorf("stderr should name the unknown policy, got: %s", errb.String())
	}
}

func TestSmallRunReport(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-app", "fft", "-size", "16", "-nproc", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"FFT on 3 CPUs under threshold(4) (affinity scheduler)",
		"user time:", "system time:", "references:", "protocol:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestReportGoldens pins the single-app report byte for byte: timing,
// protocol and paging counters, the interconnect and per-processor
// breakdowns and the reference-trace summary.
func TestReportGoldens(t *testing.T) {
	base := []string{"-app", "fft", "-size", "16", "-nproc", "3", "-perproc", "-trace"}
	for _, c := range []struct {
		golden string
		extra  []string
	}{
		{"fft_perproc_trace.golden", nil},
		{"fft_perproc_trace_4socket.golden", []string{"-topology", "4socket"}},
		{"fft_perproc_trace_unixmaster.golden", []string{"-unixmaster", "-replication=false"}},
	} {
		var out, errb strings.Builder
		args := append(append([]string{}, base...), c.extra...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0; stderr: %s", args, code, errb.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("%v diverged from %s.\ngot:\n%s\nwant:\n%s", args, c.golden, out.String(), want)
		}
	}
}

func TestCaseInsensitiveAppNames(t *testing.T) {
	// -app names resolve case-insensitively both with and without -size.
	var out, errb strings.Builder
	if code := run([]string{"-app", "parmult", "-nproc", "2", "-workers", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ParMult on 2 CPUs") {
		t.Errorf("lowercase -app should resolve to ParMult:\n%s", out.String())
	}
}

func TestTraceOutWritesValidChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errb strings.Builder
	code := run([]string{"-app", "FFT", "-size", "16", "-nproc", "3", "-trace-out", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "event trace") || !strings.Contains(out.String(), path) {
		t.Errorf("report should mention the trace file:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

func TestTraceOutRequiresSingleApp(t *testing.T) {
	for _, flag := range []string{"-traceout", "-trace-out"} {
		var out, errb strings.Builder
		code := run([]string{"-app", "FFT,ParMult", flag, filepath.Join(t.TempDir(), "x")}, &out, &errb)
		if code != 1 {
			t.Errorf("%s with two apps: exit code = %d, want 1", flag, code)
		}
		if !strings.Contains(errb.String(), "single -app") {
			t.Errorf("%s error should explain the single-app rule, got: %s", flag, errb.String())
		}
	}
}

func TestExperimentList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "pressuresweep") || !strings.Contains(out.String(), "table3") {
		t.Errorf("experiment list incomplete:\n%s", out.String())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-exp", "bogusexp"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "bogusexp") {
		t.Errorf("stderr should name the unknown experiment, got: %s", errb.String())
	}
}

func TestExperimentPressureSweep(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-exp", "pressuresweep", "-app", "FFT", "-nproc", "3",
		"-frames", "4,2", "-chaos-seed", "7", "-chaos-fail", "0.1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Memory pressure") ||
		!strings.Contains(out.String(), "FFT") {
		t.Errorf("pressure table unexpected:\n%s", out.String())
	}
}

func TestExperimentDefaultAppIsWholeMix(t *testing.T) {
	// acesim's -app default (IMatMult) must not narrow an experiment that
	// sweeps every application unless the user actually passed -app.
	var out, errb strings.Builder
	if code := run([]string{"-exp", "pressuresweep", "-nproc", "3", "-frames", "8"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, app := range []string{"Gfetch", "IMatMult", "FFT"} {
		if !strings.Contains(out.String(), app) {
			t.Errorf("app-less pressure sweep missing %s:\n%s", app, out.String())
		}
	}
}
