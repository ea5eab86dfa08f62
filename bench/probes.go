package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"time"

	"numasim/internal/benchfmt"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// microBenches maps the root package's hot-path microbenchmarks to probe
// metrics (ns per operation).
var microBenches = []struct{ bench, metric string }{
	{"BenchmarkLocalAccess", "probe.local_access_ns"},
	{"BenchmarkFaultPath", "probe.fault_path_ns"},
	{"BenchmarkPageMigration", "probe.page_migration_ns"},
	{"BenchmarkEvacuation", "probe.evacuation_ns"},
	{"BenchmarkPickManyThreads/1", "probe.pick_1_ns"},
	{"BenchmarkPickManyThreads/64", "probe.pick_64_ns"},
}

// microBenchFilter selects microBenches. go test splits a -bench pattern
// at each slash into one pattern per sub-benchmark level, so every
// top-level name sits before the slash.
const microBenchFilter = `LocalAccess$|FaultPath$|PageMigration$|Evacuation$|PickManyThreads/^(1|64)$`

// runMicroProbes runs the microbenchmarks from the root package's test
// binary and returns their ns/op by probe metric.
func runMicroProbes(ctx context.Context, testbin string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, testbin, "-test.run", "^$", "-test.bench", microBenchFilter,
		"-test.benchtime", "300ms", "-test.cpu", "1", "-test.timeout", "120s")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("microbenchmarks: %w\n%s", err, out)
	}
	f, err := benchfmt.Parse(bytes.NewReader(out))
	if err != nil {
		return nil, fmt.Errorf("microbenchmarks: %w", err)
	}
	got := f.ByName()
	m := map[string]float64{}
	for _, b := range microBenches {
		r, ok := got[b.bench]
		if !ok {
			return nil, fmt.Errorf("microbenchmarks: %s did not run", b.bench)
		}
		m[b.metric] = r.NsPerOp
	}
	return m, nil
}

// chargeSink keeps the probe's result live.
var chargeSink sim.Time

// chargeProbe times topology.(*Topology).ChargeTransfer on the 4socket
// machine, healthy or with link node0-node1 degraded 4x, and returns the
// host nanoseconds per call. Transfers are page-sized and rotate over
// every processor and memory column, the interleaved global column
// included. Virtual time advances 16µs per call, which loads each
// healthy link to about half its capacity (one page takes 49µs), so some
// calls queue; the degraded link is overloaded and its backlog grows.
func chargeProbe(degraded bool) (float64, error) {
	const nproc, batch = 4, 1 << 14
	spec, err := topology.FourSocket(nproc)
	if err != nil {
		return 0, err
	}
	t := topology.New(spec)
	if degraded {
		li, ok := spec.LinkIndex("node0-node1")
		if !ok {
			return 0, fmt.Errorf("charge probe: 4socket has no link node0-node1")
		}
		t.DegradeLink(li, 4)
	}
	cols := spec.NNodes() + 1
	var now sim.Time
	calls := 0
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for i := 0; i < batch; i++ {
			chargeSink = t.ChargeTransfer(now, calls%nproc, (calls/nproc)%cols, 4096)
			now += 16 * sim.Microsecond
			calls++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls), nil
}
