package harness

import (
	"fmt"
	"strings"

	"numasim/internal/ace"
	"numasim/internal/metrics"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

// ---------------------------------------------------------------------
// E8: false sharing — the §4.2 Primes2 tuning experiment.
// ---------------------------------------------------------------------

// FalseSharingResult compares the untuned and tuned Primes2.
type FalseSharingResult struct {
	Untuned, Tuned metrics.Eval
}

// FalseSharing reproduces the §4.2 experiment: copying the divisors out of
// the writably-shared output vector into private memory raised Primes2's α
// from 0.66 to 1.00.
func FalseSharing(opts Options) (FalseSharingResult, error) {
	opts = opts.withDefaults()
	variants := []string{"Primes2-untuned", "Primes2"}
	evals := make([]metrics.Eval, len(variants))
	err := opts.pool().Run(len(variants), func(i int) (err error) {
		evals[i], err = Evaluate(opts, variants[i])
		return err
	})
	if err != nil {
		return FalseSharingResult{}, err
	}
	return FalseSharingResult{Untuned: evals[0], Tuned: evals[1]}, nil
}

// Render formats the experiment.
func (r FalseSharingResult) Render() string {
	headers := []string{"Primes2 variant", "Tnuma", "alpha", "gamma", "local refs", "| paper alpha"}
	rows := [][]string{
		{"untuned (shared divisors)", fmtF(r.Untuned.Tnuma, 2), fmtF(r.Untuned.Alpha, 2),
			fmtF(r.Untuned.Gamma, 2), fmtF(r.Untuned.MeasuredLocalFrac, 2), "0.66"},
		{"tuned (private divisors)", fmtF(r.Tuned.Tnuma, 2), fmtF(r.Tuned.Alpha, 2),
			fmtF(r.Tuned.Gamma, 2), fmtF(r.Tuned.MeasuredLocalFrac, 2), "1.00"},
	}
	return "False sharing (§4.2): Primes2 before and after divisor privatization\n" +
		renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// Parameter sweeps (E9's pin threshold, and the model ablations: page
// size, G/L ratio, scheduling quantum) and two-run comparisons (§4.6,
// §4.7, read replication). Each is one application run once per point.
// ---------------------------------------------------------------------

// runs runs app n times, concurrently up to the options' parallelism, on
// the options' machine and policy; vary adjusts run i's spec.
func (o Options) runs(app string, n int, vary func(i int, s *metrics.RunSpec)) ([]metrics.RunResult, error) {
	o = o.withDefaults()
	out := make([]metrics.RunResult, n)
	err := o.pool().Run(n, func(i int) error {
		var err error
		out[i], err = o.run(app, app, func(s *metrics.RunSpec) { vary(i, s) })
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepRow is one point of a parameter sweep. Times are virtual seconds
// (sim.Ticks).
type SweepRow struct {
	Param        string
	Tnuma, Snuma sim.Ticks
	Pins, Moves  uint64
}

// sweep runs app once per parameter; vary sets point i's parameter in
// its spec.
func sweep(opts Options, app string, params []string, vary func(i int, s *metrics.RunSpec)) ([]SweepRow, error) {
	runs, err := opts.runs(app, len(params), vary)
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(runs))
	for i, res := range runs {
		rows[i] = SweepRow{
			Param: params[i],
			Tnuma: res.UserSec, Snuma: res.SysSec,
			Pins: res.NUMA.Pins, Moves: res.NUMA.Moves,
		}
	}
	return rows, nil
}

// labels formats each sweep point for the parameter column.
func labels[T any](format string, points []T) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf(format, p)
	}
	return out
}

// ThresholdSweep measures a workload under varying move limits; limit<0
// selects the never-pin policy.
func ThresholdSweep(opts Options, app string, limits []int) ([]SweepRow, error) {
	params := labels("%d", limits)
	for i, lim := range limits {
		if lim < 0 {
			params[i] = "never-pin"
		}
	}
	return sweep(opts, app, params, func(i int, s *metrics.RunSpec) {
		if limits[i] < 0 {
			s.Policy = policy.NeverPin()
		} else {
			s.Policy = policy.NewThreshold(limits[i])
		}
	})
}

// PageSizeSweep measures a workload at several page sizes.
func PageSizeSweep(opts Options, app string, sizes []int) ([]SweepRow, error) {
	return sweep(opts, app, labels("%d", sizes), func(i int, s *metrics.RunSpec) {
		s.Config.PageSize = sizes[i]
	})
}

// GLSweep measures a workload with the global-memory latencies of the
// options' machine scaled by the given factors (exploring machines with
// different G/L ratios), on any topology.
func GLSweep(opts Options, app string, factors []float64) ([]SweepRow, error) {
	opts = opts.withDefaults()
	base, err := ace.SpecForConfig(opts.config())
	if err != nil {
		return nil, err
	}
	return sweep(opts, app, labels("%.2f", factors), func(i int, s *metrics.RunSpec) {
		s.Config.Topo = base.ScaleGlobal(factors[i])
	})
}

// QuantumSweep measures sensitivity to the scheduling quantum (an artifact
// knob of the simulation: finer quanta interleave processors more).
func QuantumSweep(opts Options, app string, quanta []sim.Time) ([]SweepRow, error) {
	return sweep(opts, app, labels("%v", quanta), func(i int, s *metrics.RunSpec) {
		s.Config.Quantum = quanta[i]
	})
}

// RenderSweepCSV renders a sweep as CSV (one header line plus one line per
// point), ready for plotting.
func RenderSweepCSV(param string, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,user_sec,sys_sec,pins,moves\n", param)
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.6f,%.6f,%d,%d\n", r.Param, r.Tnuma, r.Snuma, r.Pins, r.Moves)
	}
	return b.String()
}

// RenderSweep renders a sweep result.
func RenderSweep(title, param string, rows []SweepRow) string {
	headers := []string{param, "Tuser", "Tsys", "pins", "moves"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{r.Param, fmtF(r.Tnuma, 3), fmtF(r.Snuma, 3),
			fmt.Sprintf("%d", r.Pins), fmt.Sprintf("%d", r.Moves)})
	}
	return title + "\n" + renderTable(headers, body)
}

// pair runs app twice on the options' machine and policy: once as
// configured, once with ablate applied to its spec.
func pair(opts Options, app string, ablate func(*metrics.RunSpec)) (base, ablated metrics.RunResult, err error) {
	runs, err := opts.runs(app, 2, func(i int, s *metrics.RunSpec) {
		if i == 1 {
			ablate(s)
		}
	})
	if err != nil {
		return base, ablated, err
	}
	return runs[0], runs[1], nil
}

// AffinityResult compares the paper's affinity scheduler (E11, §4.7)
// against the original single-queue behaviour.
type AffinityResult struct {
	App                string
	Affinity, Hopping  metrics.RunResult
	AffLocal, HopLocal float64
}

// AffinityCompare runs a workload under both scheduling disciplines.
func AffinityCompare(opts Options, app string) (AffinityResult, error) {
	aff, hop, err := pair(opts, app, func(s *metrics.RunSpec) { s.Sched = sched.NoAffinity })
	if err != nil {
		return AffinityResult{}, err
	}
	return AffinityResult{
		App: app, Affinity: aff, Hopping: hop,
		AffLocal: aff.Refs.LocalFraction(),
		HopLocal: hop.Refs.LocalFraction(),
	}, nil
}

// Render formats the comparison.
func (r AffinityResult) Render() string {
	headers := []string{"scheduler", "Tuser", "Tsys", "local refs", "moves", "pins"}
	rows := [][]string{
		{"affinity (paper §4.7)", fmtF(r.Affinity.UserSec, 3), fmtF(r.Affinity.SysSec, 3),
			fmtF(r.AffLocal, 3), fmt.Sprintf("%d", r.Affinity.NUMA.Moves), fmt.Sprintf("%d", r.Affinity.NUMA.Pins)},
		{"single queue (original)", fmtF(r.Hopping.UserSec, 3), fmtF(r.Hopping.SysSec, 3),
			fmtF(r.HopLocal, 3), fmt.Sprintf("%d", r.Hopping.NUMA.Moves), fmt.Sprintf("%d", r.Hopping.NUMA.Pins)},
	}
	return fmt.Sprintf("Processor affinity (§4.7) on %s\n", r.App) + renderTable(headers, rows)
}

// UnixMasterResult compares runs with and without the Unix-master effect
// (E12, §4.6).
type UnixMasterResult struct {
	App           string
	Off, On       metrics.RunResult
	OffLoc, OnLoc float64
}

// UnixMasterCompare runs a workload with syscalls funnelled to CPU 0.
func UnixMasterCompare(opts Options, app string) (UnixMasterResult, error) {
	off, on, err := pair(opts, app, func(s *metrics.RunSpec) { s.UnixMast = true })
	if err != nil {
		return UnixMasterResult{}, err
	}
	return UnixMasterResult{
		App: app, Off: off, On: on,
		OffLoc: off.Refs.LocalFraction(), OnLoc: on.Refs.LocalFraction(),
	}, nil
}

// Render formats the comparison.
func (r UnixMasterResult) Render() string {
	return fmt.Sprintf("Unix master (§4.6) on %s\n"+
		"  syscalls on home CPU:  user %.3fs, %.1f%% local references\n"+
		"  syscalls on master:    user %.3fs, %.1f%% local references\n",
		r.App, r.Off.UserSec, 100*r.OffLoc, r.On.UserSec, 100*r.OnLoc)
}

// ReplicationResult compares runs with and without read replication: the
// paper's protocol replicates read-only pages; Li-style pure migration
// keeps a single copy. IMatMult, which "emphasizes the value of
// replicating data that is writable, but that is never written", shows
// the difference directly.
type ReplicationResult struct {
	App           string
	With, Without metrics.RunResult
}

// ReplicationCompare measures a workload with replication on and off.
func ReplicationCompare(opts Options, app string) (ReplicationResult, error) {
	with, without, err := pair(opts, app, func(s *metrics.RunSpec) { s.NoReplication = true })
	if err != nil {
		return ReplicationResult{}, err
	}
	return ReplicationResult{App: app, With: with, Without: without}, nil
}

// Render formats the comparison.
func (r ReplicationResult) Render() string {
	headers := []string{"protocol", "Tuser", "Tsys", "copies", "pins"}
	rows := [][]string{
		{"replicate read-only (paper)", fmtF(r.With.UserSec, 3), fmtF(r.With.SysSec, 3),
			fmt.Sprintf("%d", r.With.NUMA.Copies), fmt.Sprintf("%d", r.With.NUMA.Pins)},
		{"single copy (migration only)", fmtF(r.Without.UserSec, 3), fmtF(r.Without.SysSec, 3),
			fmt.Sprintf("%d", r.Without.NUMA.Copies), fmt.Sprintf("%d", r.Without.NUMA.Pins)},
	}
	return fmt.Sprintf("Read replication ablation on %s\n", r.App) + renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// §4.4 remote references: pragma-placed pages at a home processor versus
// automatic placement, on a producer with occasional consumers — the
// "data used frequently by one processor and infrequently by others" case.
// ---------------------------------------------------------------------

// RemoteResult compares automatic placement against a remote pragma.
type RemoteResult struct {
	Auto, Remote metrics.RunResult
}

// RemoteCompare runs the asymmetric-sharing probe twice, each run under
// the options' supervisor.
func RemoteCompare(opts Options) (RemoteResult, error) {
	opts = opts.withDefaults()
	runs := make([]metrics.RunResult, 2)
	units := []string{"remote-auto", "remote-pragma"}
	err := opts.pool().Run(len(units), func(i int) error {
		return opts.supervise(units[i], func(o Options) (err error) {
			runs[i], err = o.simulate(func(s *metrics.RunSpec) { s.Policy = policy.NewPragma(nil) },
				workloads.NewHomeData(0, 0, i == 1))
			return err
		})
	})
	if err != nil {
		return RemoteResult{}, err
	}
	return RemoteResult{Auto: runs[0], Remote: runs[1]}, nil
}

// Render formats the comparison.
func (r RemoteResult) Render() string {
	headers := []string{"placement", "Tuser", "Tsys", "moves", "pins"}
	rows := [][]string{
		{"automatic (threshold)", fmtF(r.Auto.UserSec, 3), fmtF(r.Auto.SysSec, 3),
			fmt.Sprintf("%d", r.Auto.NUMA.Moves), fmt.Sprintf("%d", r.Auto.NUMA.Pins)},
		{"remote pragma (§4.4)", fmtF(r.Remote.UserSec, 3), fmtF(r.Remote.SysSec, 3),
			fmt.Sprintf("%d", r.Remote.NUMA.Moves), fmt.Sprintf("%d", r.Remote.NUMA.Pins)},
	}
	return "Remote references (§4.4) on an asymmetric producer/consumer\n" + renderTable(headers, rows)
}

// ---------------------------------------------------------------------
// Policy comparison: the paper's never-reconsider Threshold against the
// §5 Reconsider extension and a PLATINUM-style freeze/defrost policy, on
// a workload whose sharing pattern changes between phases.
// ---------------------------------------------------------------------

// PolicyRow is one policy's result on the phase-change probe.
type PolicyRow struct {
	Policy    string
	UserSec   sim.Ticks
	SysSec    sim.Ticks
	LocalFrac float64
	Pins      uint64
}

// PolicyCompare runs the Phased probe under several placement policies.
func PolicyCompare(opts Options) ([]PolicyRow, error) {
	pols := []func() numa.Policy{
		func() numa.Policy { return policy.NewDefault() },
		func() numa.Policy { return policy.NewReconsider(policy.DefaultThreshold, 8) },
		func() numa.Policy { return policy.NewFreezeDefrost(0, 0) },
	}
	runs, err := opts.runs("Phased", len(pols), func(i int, s *metrics.RunSpec) { s.Policy = pols[i]() })
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyRow, len(runs))
	for i, res := range runs {
		rows[i] = PolicyRow{
			Policy:    res.Policy,
			UserSec:   res.UserSec,
			SysSec:    res.SysSec,
			LocalFrac: res.Refs.LocalFraction(),
			Pins:      res.NUMA.Pins,
		}
	}
	return rows, nil
}

// RenderPolicyCompare formats the comparison.
func RenderPolicyCompare(rows []PolicyRow) string {
	headers := []string{"policy", "Tuser", "Tsys", "local refs", "pins"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{r.Policy, fmtF(r.UserSec, 3), fmtF(r.SysSec, 3),
			fmtF(r.LocalFrac, 3), fmt.Sprintf("%d", r.Pins)})
	}
	return "Placement policies on a phase-changing workload (shared phase, then partitioned phase)" + "\n" +
		renderTable(headers, body)
}
