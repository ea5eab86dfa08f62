// Benchmarks regenerating every table and figure of the paper, plus
// microbenchmarks of the simulator's hot paths. Each Table 3/4 benchmark
// performs the paper's full instrumented-run protocol (T_numa, T_global,
// T_local) at reduced problem sizes and reports the derived model
// parameters as benchmark metrics, so `go test -bench .` both regenerates
// the results and tracks the harness's own cost.
package numasim_test

import (
	"strconv"
	"testing"

	"numasim"
	"numasim/internal/ace"
	"numasim/internal/harness"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
)

// benchOpts uses the reduced problem sizes so a full -bench run stays
// under a minute, and pins Parallelism to 1 so per-iteration costs stay
// comparable across machines (BenchmarkTable3Parallel measures the
// parallel harness separately). Note that Table 4's overhead *ratios* are
// size-dependent (fixed page-movement transients over shrunken compute);
// the values the paper should be compared against come from
// `go run ./cmd/tables` at default sizes (see EXPERIMENTS.md).
var benchOpts = numasim.HarnessOptions{NProc: 7, Small: true, Parallelism: 1}

// benchEval evaluates one application per iteration and reports α, β, γ.
func benchEval(b *testing.B, app string) {
	b.Helper()
	var last harness.Table3Row
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table3Single(benchOpts, app)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(last.Eval.Alpha, "alpha")
	b.ReportMetric(last.Eval.Beta, "beta")
	b.ReportMetric(last.Eval.Gamma, "gamma")
}

// BenchmarkTable3 regenerates each row of the paper's Table 3 (E5).
func BenchmarkTable3(b *testing.B) {
	for _, app := range harness.Table3Apps {
		app := app
		b.Run(app, func(b *testing.B) { benchEval(b, app) })
	}
}

// BenchmarkAvailability runs each application's row of the availability
// sweep (every failure schedule, at the small sizes on the contended
// 4-processor 4socket machine, one simulation at a time): the end-to-end
// cost of the interconnect model, healthy, degraded and rerouted.
func BenchmarkAvailability(b *testing.B) {
	opts := numasim.HarnessOptions{NProc: 4, Small: true, Parallelism: 1, Topology: "4socket"}
	for _, app := range harness.AvailabilityApps {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := harness.AvailabilitySweep(opts, []string{app})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Err != "" {
						b.Fatalf("%s under %s: %s", r.App, r.Schedule, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkTable4 regenerates each row of the paper's Table 4 (E6),
// reporting the measured overhead ratio.
func BenchmarkTable4(b *testing.B) {
	for _, app := range harness.Table4Apps {
		app := app
		b.Run(app, func(b *testing.B) {
			var pct float64
			for i := 0; i < b.N; i++ {
				row, err := harness.Table4Single(benchOpts, app)
				if err != nil {
					b.Fatal(err)
				}
				pct = row.DeltaPct
			}
			b.ReportMetric(pct, "dS/T%")
		})
	}
}

// BenchmarkTable1 and BenchmarkTable2 derive the protocol action matrices
// from the implementation (E3, E4).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.ProtocolTable(false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.ProtocolTable(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 and BenchmarkFigure2 regenerate the architecture
// diagrams (E1, E2).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s, err := harness.Figure1(benchOpts); err != nil || s == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Figure2() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFalseSharing runs the §4.2 Primes2 experiment (E8).
func BenchmarkFalseSharing(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := harness.FalseSharing(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.Tuned.Alpha - r.Untuned.Alpha
	}
	b.ReportMetric(gap, "alpha-gain")
}

// BenchmarkAblateThreshold sweeps the pin threshold (E9), the design
// parameter §2.3.2 exposes.
func BenchmarkAblateThreshold(b *testing.B) {
	for _, lim := range []int{0, 4, -1} {
		lim := lim
		name := "never-pin"
		if lim >= 0 {
			name = strconv.Itoa(lim)
		}
		b.Run("limit-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.ThresholdSweep(benchOpts, "Primes3", []int{lim}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblateAffinity compares the affinity scheduler with the
// original single-queue behaviour (E11).
func BenchmarkAblateAffinity(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := harness.AffinityCompare(benchOpts, "Primes1")
		if err != nil {
			b.Fatal(err)
		}
		gap = r.AffLocal - r.HopLocal
	}
	b.ReportMetric(gap, "local-gain")
}

// ---------------------------------------------------------------------
// Simulator hot-path microbenchmarks.
// ---------------------------------------------------------------------

// BenchmarkLocalAccess measures the simulator's cost for the common case:
// a load that hits a local replica through the software TLB.
func BenchmarkLocalAccess(b *testing.B) {
	sys := newSystem(b, 1, numasim.AllLocalPolicy())
	va := sys.Runtime.Alloc("data", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	err := sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		c.Store32(va, 1)
		for i := 0; i < b.N; i++ {
			c.Load32(va)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessor measures each Context accessor on a TLB hit to a
// local frame, a row per accessor, and two Load32 rows on contended
// 4socket: from another node's memory, which charges through the machine
// and its interconnect, and from the processor's own node, which crosses
// no link and is charged by its row alone. Each 32-bit word of a row is
// one simulated reference.
func BenchmarkAccessor(b *testing.B) {
	for _, a := range []struct {
		name string
		do   func(c *numasim.Context, va uint32)
	}{
		{"Load8", func(c *numasim.Context, va uint32) { c.Load8(va) }},
		{"Store8", func(c *numasim.Context, va uint32) { c.Store8(va, 1) }},
		{"Load32", func(c *numasim.Context, va uint32) { c.Load32(va) }},
		{"Store32", func(c *numasim.Context, va uint32) { c.Store32(va, 1) }},
		{"Load64", func(c *numasim.Context, va uint32) { c.Load64(va) }},
		{"Store64", func(c *numasim.Context, va uint32) { c.Store64(va, 1) }},
		{"TestAndSet", func(c *numasim.Context, va uint32) { c.TestAndSet(va) }},
		{"FetchOr32", func(c *numasim.Context, va uint32) { c.FetchOr32(va, 1) }},
	} {
		b.Run(a.name, func(b *testing.B) {
			sys := newSystem(b, 1, numasim.AllLocalPolicy())
			benchAccess(b, sys, -1, a.do)
		})
	}
	b.Run("Remote4socket/Load32", func(b *testing.B) {
		sys := fourSocket(b, numasim.PragmaPolicy(nil))
		benchAccess(b, sys, 1, func(c *numasim.Context, va uint32) { c.Load32(va) })
		if r := sys.Machine.Proc(0).Refs(); r.RemoteFetch < uint64(b.N) {
			b.Fatalf("cpu0 made %d remote fetches, want at least %d", r.RemoteFetch, b.N)
		}
	})
	b.Run("Local4socket/Load32", func(b *testing.B) {
		sys := fourSocket(b, numasim.AllLocalPolicy())
		benchAccess(b, sys, -1, func(c *numasim.Context, va uint32) { c.Load32(va) })
		if r := sys.Machine.Proc(0).Refs(); r.LocalFetch < uint64(b.N) {
			b.Fatalf("cpu0 made %d local fetches, want at least %d", r.LocalFetch, b.N)
		}
		for _, l := range sys.Machine.Topo().LinkStats() {
			if l.Xfers != 0 {
				b.Fatalf("link %s carried %d transfers, want none", l.Name, l.Xfers)
			}
		}
	})
}

// fourSocket builds a 4-processor system on the contended 4socket
// topology under pol.
func fourSocket(b *testing.B, pol numasim.Policy) *numasim.System {
	b.Helper()
	cfg := numasim.DefaultConfig()
	cfg.NProc, cfg.Topology = 4, "4socket"
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithPolicy(pol))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchAccess times b.N calls of do on one word of a fresh page, from one
// thread on cpu0, after a store has mapped the page writable. A home of 0
// or more places the page remotely there (§4.4).
func benchAccess(b *testing.B, sys *numasim.System, home int, do func(c *numasim.Context, va uint32)) {
	b.Helper()
	va := sys.Runtime.Alloc("data", 4096)
	b.ReportAllocs()
	err := sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		if home >= 0 {
			c.Task().SetHome(va, home)
		}
		c.Store32(va, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(c, va)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchMachine keeps BenchmarkNewMachine's result live.
var benchMachine *ace.Machine

// BenchmarkNewMachine prices building a machine at the paper's memory
// size, which every run pays once. Frame records are made on first
// allocation, so B/op does not grow with the number of frames, and every
// machine of a shape shares one topology spec, so allocs/op does not
// grow with the number of processors.
func BenchmarkNewMachine(b *testing.B) {
	for _, topo := range []string{"ace", "4socket", "mesh8"} {
		b.Run(topo, func(b *testing.B) {
			cfg := ace.DefaultConfig()
			cfg.NProc, cfg.Topology = 4, topo
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := ace.NewMachine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchMachine = m
			}
		})
	}
}

// BenchmarkPickManyThreads measures one yield — the engine's pick of the
// next thread to run and the hand-off to it — as the ready queue grows.
// n threads at one clock each advance a microsecond and yield. A lone
// thread (/1) is certain to win every pick, so the engine re-dispatches
// it in place and its row is the cost of a yield that switches nothing.
// From /2 on, every yield finds a ready thread at an earlier or equal
// clock, so each one pushes the yielder, picks the next thread and
// switches coroutines; the indexed min-heap keeps the pick logarithmic
// where the original linear scan grew with the thread count.
func BenchmarkPickManyThreads(b *testing.B) {
	for _, n := range []int{1, 2, 64, 1024} {
		n := n
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			e := sim.NewEngine()
			iters := b.N/n + 1
			for i := 0; i < n; i++ {
				e.Spawn("t", 0, func(th *sim.Thread) {
					for j := 0; j < iters; j++ {
						th.Advance(sim.Microsecond)
						th.Yield()
					}
				})
			}
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTable3Parallel regenerates the full small Table 3 through the
// worker pool at the default parallelism (one simulation per host CPU).
// Compare against BenchmarkTable3's per-row cost to see the wall-clock
// effect of the pool on this machine.
func BenchmarkTable3Parallel(b *testing.B) {
	opts := benchOpts
	opts.Parallelism = 0 // default: runtime.NumCPU()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageMigration measures a full ownership transfer: write fault,
// sync, flush, copy.
func BenchmarkPageMigration(b *testing.B) {
	sys := newSystem(b, 2, numasim.NeverPinPolicy())
	va := sys.Runtime.Alloc("pingpong", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	err := sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		for i := 0; i < b.N; i++ {
			c.MigrateTo(i % 2)
			c.Store32(va, uint32(i))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFaultPath measures a full page fault: the mappings for a
// materialized page are torn out (unmap plus TLB shootdown on every
// space), then one load refaults it through the kernel, the NUMA
// manager's placement decision and the pmap enter path.
func BenchmarkFaultPath(b *testing.B) {
	sys := newSystem(b, 1, numasim.AllLocalPolicy())
	va := sys.Runtime.Alloc("fault", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	err := sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		c.Store32(va, 1) // materialize the page
		pm := c.Task().Kernel().Pmap()
		for i := 0; i < b.N; i++ {
			if pg := c.Task().EntryAt(va).Object().Page(0); pg != nil {
				pm.RemoveAll(c.Thread(), pg)
			}
			c.Load32(va)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReclaimFault measures a page fault under memory pressure, the
// hot loop of the pressure-reclaim workload: with ace.MinLocalFrames local
// frames and one thread loading round-robin from three pages, every load
// faults, and placing its local copy evicts another page's through the
// clock reclaimer.
func BenchmarkReclaimFault(b *testing.B) {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 7
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithLocalFrames(ace.MinLocalFrames))
	if err != nil {
		b.Fatal(err)
	}
	const npages = 3
	ps := uint32(sys.Machine.PageSize())
	va := sys.Runtime.Alloc("reclaim", npages*ps)
	nm := sys.Kernel.NUMA()
	var warm uint64
	b.ReportAllocs()
	err = sys.Runtime.Run(1, func(id int, c *numasim.Context) {
		for i := 0; i < 4*npages; i++ {
			c.Load32(va + uint32(i%npages)*ps)
		}
		warm = nm.Stats().Evictions
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Load32(va + uint32(i%npages)*ps)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if n := nm.Stats().Evictions - warm; n < uint64(b.N) {
		b.Fatalf("%d evictions in %d loads: not every load faulted and evicted", n, b.N)
	}
}

// BenchmarkPolicyCompare races the placement policies on the
// phase-changing probe.
func BenchmarkPolicyCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.PolicyCompare(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead measures what the simtrace bus costs the Table 3
// hot path. The "off" case is the zero-cost-when-off contract: with no
// sink attached every emission site reduces to one nil check, so it must
// stay within noise (<1%) of the pre-simtrace baseline. The "counting"
// case prices the cheapest real sink (one atomic add per event).
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, sink simtrace.Sink) {
		b.Helper()
		b.ReportAllocs()
		opts := benchOpts
		opts.TraceSink = sink
		for i := 0; i < b.N; i++ {
			if _, err := harness.Table3Single(opts, "FFT"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("counting", func(b *testing.B) {
		counts := &simtrace.CountingSink{}
		run(b, counts)
		b.ReportMetric(float64(counts.Total())/float64(b.N), "events/op")
	})
}

// BenchmarkAuditOverhead prices the online protocol auditor on the
// Table 3 hot path. "off" is the baseline; "sampled" (stride 1024) is
// the mode meant for long sweeps and must stay within 5% of it; "full"
// (stride 1, every protocol action re-validated) is the fuzz/debug
// setting and may cost what it costs.
func BenchmarkAuditOverhead(b *testing.B) {
	run := func(b *testing.B, stride int) {
		b.Helper()
		opts := benchOpts
		opts.Audit = stride
		for i := 0; i < b.N; i++ {
			if _, err := harness.Table3Single(opts, "FFT"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("sampled", func(b *testing.B) { run(b, 1024) })
	b.Run("full", func(b *testing.B) { run(b, 1) })
}

// BenchmarkEvacuation prices one full degraded-mode cycle on the
// 4-socket machine: place local writable copies on a node, fail it
// (drain every copy onto the survivors through the bounded work queue,
// quarantine the pool), then revive it cold. The per-op cost is what a
// failure schedule charges the host per node event, on top of the
// virtual time it bills the simulation.
func BenchmarkEvacuation(b *testing.B) {
	spec, err := topology.FourSocket(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ace.DefaultConfig()
	cfg.NProc = 4
	cfg.GlobalFrames = 128
	cfg.LocalFrames = 32
	cfg.Topo = spec
	m := ace.MustMachine(cfg)
	n := numa.NewManager(m, policy.NewDefault())

	const npages = 16
	pages := make([]*numa.Page, npages)
	b.ReportAllocs()
	m.Engine().Spawn("bench", 0, func(th *sim.Thread) {
		for i := range pages {
			pg, err := n.NewPage()
			if err != nil {
				b.Fatal(err)
			}
			pages[i] = pg
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, pg := range pages {
				// Repeated writes pass the pin threshold, so the copies are
				// local-writable on node 1 when the failure hits.
				for j := 0; j < 3; j++ {
					n.Access(th, pg, 1, true, mmu.ProtReadWrite)
				}
			}
			n.FailNode(th, 1)
			n.ReviveNode(th, 1)
		}
	})
	if err := m.Engine().Run(); err != nil {
		b.Fatal(err)
	}
	if n.Stats().Evacuations == 0 {
		b.Fatal("benchmark never evacuated a page")
	}
}

// BenchmarkMix runs two applications concurrently (the application-mix
// experiment).
func BenchmarkMix(b *testing.B) {
	var local float64
	for i := 0; i < b.N; i++ {
		r, err := harness.MixRun(benchOpts, []string{"ParMult", "Primes1"})
		if err != nil {
			b.Fatal(err)
		}
		local = r.LocalFrac
	}
	b.ReportMetric(local, "local-frac")
}
