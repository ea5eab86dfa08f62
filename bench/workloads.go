package main

import (
	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/topology"
)

// workload is one experiment the benchmark times. Every workload is a
// closed loop with a single caller: the next experiment call starts when
// the previous one returns, and each call runs one simulation at a time
// (Parallelism 1), which is what a tables user gets per simulation.
type workload struct {
	name string
	// seeded marks the one workload whose output depends on the seed.
	seeded bool
	// options builds the harness options for a seed; small selects the
	// reduced sizes the smoke test uses.
	options func(seed int64, small bool) harness.Options
	// run makes the workload's experiment calls once.
	run func(o harness.Options, small bool) (runOutput, error)
	// configs lists one machine configuration per simulated run, in run
	// order; the set-up metric builds each of them.
	configs func(o harness.Options, small bool) []ace.Config
}

// runOutput is what one pass of a workload's experiment calls produced.
type runOutput struct {
	// csv is the CSV rendering of each call.
	csv []string
	// counts are the counters the result rows carry that the trace sink
	// cannot supply (the tournament ignores the sink, so its rows supply
	// all of its counts).
	counts map[string]float64
	// runs is the number of simulations the calls made, read off their
	// result rows; configs must list one machine for each.
	runs int
}

// pressureApps and pressureFrames are the pressure sweep's grid: one
// read-mostly app (its replicas are dropped clean) and one that writes
// (its dirty copies are synced), each at a roomy and a starved budget.
var (
	pressureApps   = []string{"IMatMult", "FFT"}
	pressureFrames = []int{16, 4}
)

// tournamentCalls is how many back-to-back tournament calls make one
// tournament-small repetition: 30, enough short simulations that per-run
// set-up dominates, or 2 at the test sizes.
func tournamentCalls(small bool) int {
	if small {
		return 2
	}
	return 30
}

var workloads = []workload{
	// The paper's headline run at default sizes: most host time is the
	// reference path (vm, mmu, ace, mem), with few faults.
	{
		name: "table3-paper",
		options: func(_ int64, small bool) harness.Options {
			return harness.Options{NProc: 7, Small: small, Parallelism: 1}
		},
		run: func(o harness.Options, _ bool) (runOutput, error) {
			rows, err := harness.Table3(o)
			if err != nil {
				return runOutput{}, err
			}
			var runs []metrics.RunResult
			for _, r := range rows {
				runs = append(runs, r.Eval.NumaRun, r.Eval.GlobalRun, r.Eval.LocalRun)
			}
			return runOutput{[]string{harness.RenderTable3CSV(rows)}, runCounts(runs), len(runs)}, nil
		},
		configs: func(o harness.Options, _ bool) []ace.Config {
			var out []ace.Config
			for range harness.Table3Apps {
				cfg := machineConfig(o)
				local := cfg
				local.NProc = 1
				out = append(out, cfg, cfg, local)
			}
			return out
		},
	},
	// Starved local memory under seeded chaos: most host time is the fault,
	// reclaim and retry path (numa, pmap).
	{
		name:   "pressure-reclaim",
		seeded: true,
		options: func(seed int64, small bool) harness.Options {
			return harness.Options{NProc: 7, Small: small, Parallelism: 1, Chaos: chaos.Config{
				Seed: seed, FailProb: 0.05, DelayProb: 0.10,
				MaxRetries: chaos.DefaultMaxRetries, Backoff: chaos.DefaultBackoff,
				MoveDelay: chaos.DefaultMoveDelay,
			}}
		},
		run: func(o harness.Options, _ bool) (runOutput, error) {
			rows, err := harness.PressureSweepAll(o, pressureApps, pressureFrames)
			if err != nil {
				return runOutput{}, err
			}
			fracs := make([]float64, len(rows))
			for i, r := range rows {
				fracs[i] = r.LocalFrac
			}
			return runOutput{[]string{harness.RenderPressureCSV(rows)},
				map[string]float64{"ace.local_frac": mean(fracs)}, len(rows)}, nil
		},
		configs: func(o harness.Options, _ bool) []ace.Config {
			var out []ace.Config
			for range pressureApps {
				for _, budget := range append([]int{0}, pressureFrames...) {
					cfg := machineConfig(o)
					if budget > 0 {
						cfg.LocalFrames = budget
					}
					out = append(out, cfg)
				}
			}
			return out
		},
	},
	// Every app through node and link failure schedules on 4socket: the only
	// workload with contended, degraded and rerouted links (topology).
	{
		name: "availability-4socket",
		options: func(_ int64, small bool) harness.Options {
			return harness.Options{NProc: 4, Small: small, Parallelism: 1}
		},
		run: func(o harness.Options, _ bool) (runOutput, error) {
			rows, err := harness.AvailabilitySweep(o, nil)
			if err != nil {
				return runOutput{}, err
			}
			fracs := make([]float64, len(rows))
			for i, r := range rows {
				fracs[i] = r.LocalFrac
			}
			return runOutput{[]string{harness.RenderAvailCSV(rows)},
				map[string]float64{"ace.local_frac": mean(fracs)}, len(rows)}, nil
		},
		configs: func(o harness.Options, _ bool) []ace.Config {
			cfg := machineConfig(o)
			cfg.Topology = "4socket"
			// Four schedules per app; the 4socket machine has all four links.
			out := make([]ace.Config, 4*len(harness.AvailabilityApps))
			for i := range out {
				out[i] = cfg
			}
			return out
		},
	},
	// Thousands of short policy-zoo runs: per-run set-up (machine build, mem
	// pools, GC) dominates, and only here do the adaptive policies run. The
	// tournament gives its co-placement policies no accepted scheduler
	// hints at these sizes, so it exercises no thread migration.
	{
		name:    "tournament-small",
		options: func(int64, bool) harness.Options { return harness.Options{NProc: 3, Small: true, Parallelism: 1} },
		run: func(o harness.Options, small bool) (runOutput, error) {
			out := runOutput{counts: map[string]float64{}}
			var fracs []float64
			for i := 0; i < tournamentCalls(small); i++ {
				res, err := harness.Tournament(o)
				if err != nil {
					return runOutput{}, err
				}
				out.csv = append(out.csv, res.RenderCSV())
				out.runs += len(res.Rows)
				for _, r := range res.Rows {
					out.counts["numa.moves"] += float64(r.Moves)
					out.counts["numa.pins"] += float64(r.Pins)
					fracs = append(fracs, r.LocalFrac)
				}
			}
			out.counts["ace.local_frac"] = mean(fracs)
			return out, nil
		},
		configs: func(o harness.Options, small bool) []ace.Config {
			var out []ace.Config
			for i := 0; i < tournamentCalls(small); i++ {
				for _, topo := range topology.Names() {
					cfg := machineConfig(o)
					cfg.Topology = topo
					for range harness.TournamentWorkloads {
						for range harness.TournamentPolicies {
							out = append(out, cfg)
						}
					}
				}
			}
			return out
		},
	},
}

// lookup finds a workload by name.
func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// machineConfig mirrors the machine the harness builds for its options
// (its own builder is unexported). runRep checks only that the workloads'
// configs count one machine per simulation, not that each matches.
func machineConfig(o harness.Options) ace.Config {
	cfg := ace.DefaultConfig()
	cfg.NProc = o.NProc
	if o.Small {
		cfg.GlobalFrames = 2048
		cfg.LocalFrames = 1024
	}
	cfg.Topology = o.Topology
	return cfg
}

// runCounts sums the counters that full run results carry and the trace
// sink cannot supply.
func runCounts(runs []metrics.RunResult) map[string]float64 {
	c := map[string]float64{}
	fracs := make([]float64, len(runs))
	for i, r := range runs {
		c["ace.refs"] += float64(r.Refs.Total())
		c["numa.moves"] += float64(r.NUMA.Moves)
		fracs[i] = r.Refs.LocalFraction()
	}
	c["ace.local_frac"] = mean(fracs)
	return c
}
