package simtrace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/policy"
	"numasim/internal/simtrace"
	"numasim/internal/workloads"
)

// exportFFT runs FFT(16) on 3 processors with a private event sink and
// returns the Chrome trace-event export. It may run off the test
// goroutine, so it reports errors instead of failing the test itself.
func exportFFT() ([]byte, error) {
	w, err := workloads.New("FFT", 16, false)
	if err != nil {
		return nil, err
	}
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	events := &simtrace.ListSink{}
	spec := metrics.RunSpec{Config: cfg, Policy: policy.NewThreshold(policy.DefaultThreshold), TraceSink: events}
	if _, err := metrics.Run(spec, w); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	meta := simtrace.ChromeMeta{NProc: cfg.NProc, Label: w.Name()}
	if err := simtrace.WriteChrome(&buf, events.Events(), meta); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestChromeExportDeterministicAcrossParallelism asserts the exporter's
// headline property: the same workload and configuration produce a
// byte-identical Chrome trace-event file whether the simulation runs alone
// (-parallel 1) or races seven identical siblings (-parallel 8). Each run
// has its own machine and sink; host scheduling must not leak in.
func TestChromeExportDeterministicAcrossParallelism(t *testing.T) {
	solo, err := exportFFT()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(solo) {
		t.Fatal("export is not valid JSON")
	}
	if len(solo) < 100 {
		t.Fatalf("export suspiciously small: %d bytes", len(solo))
	}

	const runs = 8
	exports := make([][]byte, runs)
	err = harness.NewPool(runs).Run(runs, func(i int) error {
		out, err := exportFFT()
		exports[i] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range exports {
		if !bytes.Equal(got, solo) {
			t.Errorf("run %d of %d concurrent exports differs from the solo export (%d vs %d bytes)",
				i, runs, len(got), len(solo))
		}
	}
}
