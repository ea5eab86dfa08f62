package vm_test

import (
	"testing"

	"numasim/internal/mmu"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

// TestHotPathZeroAlloc is the zero-allocation invariant the perf work
// promises: once a page is mapped and owned, the TLB-hit translate path
// and the local-reference charge path allocate nothing per access.
// testing.AllocsPerRun measures inside the simulated thread (the
// references must run under the engine); the results are asserted after
// Run returns. The guard is skipped under the race detector, whose
// runtime allocates on the measured paths.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on the hot path; guard runs in non-race CI")
	}
	var tlbHit, localRef float64
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		base := c.Task().Allocate("data", 8192, mmu.ProtReadWrite)
		// Warm up: fault the pages in and take local-writable ownership so
		// subsequent accesses are pure TLB hits on a local frame.
		c.Store32(base, 1)
		c.Store32(base+4096, 2)
		_ = c.Load32(base)

		// TLB-hit path: repeated loads of one mapped address.
		tlbHit = testing.AllocsPerRun(200, func() {
			_ = c.Load32(base)
		})
		// Local-reference path: mixed loads and stores against locally
		// owned pages, exercising translate, charge and quantum ticking.
		localRef = testing.AllocsPerRun(200, func() {
			_ = c.Load32(base)
			c.Store32(base+4096, 3)
		})
	})
	if tlbHit != 0 {
		t.Errorf("TLB-hit load path allocates %.1f objects per access, want 0", tlbHit)
	}
	if localRef != 0 {
		t.Errorf("local-reference path allocates %.1f objects per access, want 0", localRef)
	}
}

// TestHotPathZeroAllocTopology reruns the core guard on a contended
// multi-node machine: the latency-matrix lookup, home-node mapping and
// token-bucket link charging that replaced the Local/Global constants must
// also be allocation-free per access.
func TestHotPathZeroAllocTopology(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on the hot path; guard runs in non-race CI")
	}
	cfg := smallCfg(4)
	cfg.Topology = "4socket"
	var tlbHit, localRef float64
	run1(t, cfg, nil, func(c *vm.Context) {
		base := c.Task().Allocate("data", 8192, mmu.ProtReadWrite)
		c.Store32(base, 1)
		c.Store32(base+4096, 2)
		_ = c.Load32(base)

		tlbHit = testing.AllocsPerRun(200, func() {
			_ = c.Load32(base)
		})
		localRef = testing.AllocsPerRun(200, func() {
			_ = c.Load32(base)
			c.Store32(base+4096, 3)
		})
	})
	if tlbHit != 0 {
		t.Errorf("4socket TLB-hit load path allocates %.1f objects per access, want 0", tlbHit)
	}
	if localRef != 0 {
		t.Errorf("4socket local-reference path allocates %.1f objects per access, want 0", localRef)
	}
}

// TestHotPathRootsZeroAlloc extends the guard to every remaining
// //numalint:hotpath root on Context and Kernel: the sized and atomic
// access paths, and the steady-state fault path (refault of an already
// materialized page). Together with TestHotPathZeroAlloc this pins the
// full set of annotated entry points, so the static hotpath pass and the
// runtime allocation counter agree about what "allocation-free" covers.
func TestHotPathRootsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on the hot path; guard runs in non-race CI")
	}
	counts := map[string]float64{}
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		base := c.Task().Allocate("data", 8192, mmu.ProtReadWrite)
		// Warm up both pages with every access width so ownership and
		// protection are settled before measuring.
		c.Store32(base, 1)
		c.Store64(base+4096, 2)
		_ = c.Load32(base)

		counts["Load8/Store8"] = testing.AllocsPerRun(200, func() {
			c.Store8(base+8, 0x5a)
			_ = c.Load8(base + 8)
		})
		counts["Load64/Store64"] = testing.AllocsPerRun(200, func() {
			c.Store64(base+16, 0x0123456789abcdef)
			_ = c.Load64(base + 16)
		})
		counts["LoadF64/StoreF64"] = testing.AllocsPerRun(200, func() {
			c.StoreF64(base+24, 3.5)
			_ = c.LoadF64(base + 24)
		})
		counts["TestAndSet"] = testing.AllocsPerRun(200, func() {
			_ = c.TestAndSet(base + 32)
		})
		counts["FetchOr32"] = testing.AllocsPerRun(200, func() {
			_ = c.FetchOr32(base+36, 0x10)
		})
		// Steady-state fault path: tear out the mappings for a materialized
		// page, then refault it through Kernel.Fault, placement and the
		// pmap enter path (mirrors BenchmarkFaultPath, which reports
		// 0 allocs/op).
		pm := c.Task().Kernel().Pmap()
		counts["Fault"] = testing.AllocsPerRun(50, func() {
			if pg := c.Task().EntryAt(base).Object().Page(0); pg != nil {
				pm.RemoveAll(c.Thread(), pg)
			}
			_ = c.Load32(base)
		})
	})
	for path, n := range counts {
		if n != 0 {
			t.Errorf("%s path allocates %.1f objects per access, want 0", path, n)
		}
	}
}

// heatMover is the zero-allocation guard's stand-in scheduler: hint
// recording must not allocate either.
type heatMover struct{ calls int }

// MigrateHint implements numa.ThreadMover.
//
//numalint:hotpath
func (m *heatMover) MigrateHint(th *sim.Thread, node int) bool {
	m.calls++
	return false
}

// TestHeatPathZeroAlloc extends the guard to the adaptive-policy
// machinery: with a thread advisor bound (coplace) and a thread mover
// wired in, the steady-state refault path — which also decays and bumps
// the heat counters kept on every request, consults the advisor and
// offers hints to the mover — must still allocate nothing per access.
func TestHeatPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on the hot path; guard runs in non-race CI")
	}
	pol, err := policy.Parse("coplace:min=1")
	if err != nil {
		t.Fatal(err)
	}
	var fault float64
	run1(t, smallCfg(2), pol, func(c *vm.Context) {
		c.Task().Kernel().NUMA().SetThreadMover(&heatMover{})
		base := c.Task().Allocate("data", 8192, mmu.ProtReadWrite)
		c.Store32(base, 1)
		_ = c.Load32(base)
		pm := c.Task().Kernel().Pmap()
		fault = testing.AllocsPerRun(50, func() {
			if pg := c.Task().EntryAt(base).Object().Page(0); pg != nil {
				pm.RemoveAll(c.Thread(), pg)
			}
			_ = c.Load32(base)
		})
	})
	if fault != 0 {
		t.Errorf("heat-tracking fault path allocates %.1f objects per access, want 0", fault)
	}
}
