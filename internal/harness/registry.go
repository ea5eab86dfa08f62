package harness

import (
	"fmt"
	"strings"

	"numasim/internal/sim"
)

// Result is a finished experiment ready to print.
type Result interface {
	// Render formats the result as the plain-text table(s) the command-line
	// tools print.
	Render() string
}

// CSVResult is implemented by results that also have a machine-readable
// form (one header line plus one line per row, ready for plotting).
type CSVResult interface {
	Result
	RenderCSV() string
}

// Experiment is one reproducible experiment: a named recipe that turns
// Options into a Result. Run must be stateless: it may be called
// concurrently and repeatedly.
type Experiment struct {
	Name     string // matched case-insensitively by Lookup
	Describe string // one-line summary for -exp list
	Run      func(opts Options) (Result, error)
}

// Lookup finds an experiment by name, case-insensitively.
func Lookup(name string) (Experiment, bool) {
	for _, e := range experiments {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the registered experiment names, sorted.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// TablesSequence is the document order in which the tables command prints
// the full evaluation: the paper's figures and tables first, then the
// extensions.
var TablesSequence = []string{
	"figure1", "figure2",
	"table1", "table2", "table3", "table4",
	"falsesharing",
}

// stringResult adapts a pre-rendered string.
type stringResult string

func (s stringResult) Render() string { return string(s) }

// table3Result carries Table 3 rows with both renderings.
type table3Result []Table3Row

func (r table3Result) Render() string    { return RenderTable3(r) }
func (r table3Result) RenderCSV() string { return RenderTable3CSV(r) }

// table4Result carries Table 4 rows with both renderings.
type table4Result []Table4Row

func (r table4Result) Render() string    { return RenderTable4(r) }
func (r table4Result) RenderCSV() string { return RenderTable4CSV(r) }

// sweepResult carries parameter-sweep rows plus their table title and
// parameter column name.
type sweepResult struct {
	title, param string
	rows         []SweepRow
}

func (r sweepResult) Render() string    { return RenderSweep(r.title, r.param, r.rows) }
func (r sweepResult) RenderCSV() string { return RenderSweepCSV(r.param, r.rows) }

// pressureResult carries a memory-pressure sweep.
type pressureResult []PressureRow

func (r pressureResult) Render() string    { return RenderPressure(r) }
func (r pressureResult) RenderCSV() string { return RenderPressureCSV(r) }

// availResult carries an availability sweep.
type availResult []AvailRow

func (r availResult) Render() string    { return RenderAvail(r) }
func (r availResult) RenderCSV() string { return RenderAvailCSV(r) }

// policyResult carries the policy-comparison rows.
type policyResult []PolicyRow

func (r policyResult) Render() string { return RenderPolicyCompare(r) }

// appOr returns opts.App, or fallback when no application was chosen.
func appOr(opts Options, fallback string) string {
	if opts.App != "" {
		return opts.App
	}
	return fallback
}

// experiments is every registered experiment, sorted by name.
var experiments = []Experiment{
	{"affinity", "processor-affinity scheduling ablation (§4.7)",
		func(opts Options) (Result, error) {
			return AffinityCompare(opts, appOr(opts, "IMatMult"))
		}},
	{"availability", "degradation under node/link failure schedules",
		func(opts Options) (Result, error) {
			// With no -app, sweep the whole mix plus the Zipf probe.
			var apps []string
			if opts.App != "" {
				apps = []string{opts.App}
			}
			rows, err := AvailabilitySweep(opts, apps)
			return availResult(rows), err
		}},
	{"falsesharing", "Primes2 false-sharing tuning (§4.2)",
		func(opts Options) (Result, error) {
			return FalseSharing(opts)
		}},
	{"figure1", "machine topology diagram (Figure 1)",
		func(opts Options) (Result, error) {
			s, err := Figure1(opts)
			return stringResult(s), err
		}},
	{"figure2", "software architecture diagram (Figure 2)",
		func(opts Options) (Result, error) {
			return stringResult(Figure2()), nil
		}},
	{"glsweep", "global-latency (G/L ratio) sweep (model ablation)",
		func(opts Options) (Result, error) {
			app := appOr(opts, "IMatMult")
			rows, err := GLSweep(opts, app, []float64{0.5, 1, 2, 4})
			return sweepResult{fmt.Sprintf("Global-latency sweep on %s", app), "g_scale", rows}, err
		}},
	{"mix", "IMatMult, Primes1 and FFT sharing one machine",
		func(opts Options) (Result, error) {
			return MixRun(opts, []string{"IMatMult", "Primes1", "FFT"})
		}},
	{"pagesize", "page-size sweep (model ablation)",
		func(opts Options) (Result, error) {
			app := appOr(opts, "IMatMult")
			rows, err := PageSizeSweep(opts, app, []int{1024, 2048, 4096, 8192})
			return sweepResult{fmt.Sprintf("Page size sweep on %s", app), "page_size", rows}, err
		}},
	{"policycompare", "threshold vs reconsider vs freeze/defrost",
		func(opts Options) (Result, error) {
			rows, err := PolicyCompare(opts)
			return policyResult(rows), err
		}},
	{"pressuresweep", "slowdown under shrinking local memory",
		func(opts Options) (Result, error) {
			// With no -app, sweep the paper's whole application mix.
			var apps []string
			if opts.App != "" {
				apps = []string{opts.App}
			}
			rows, err := PressureSweepAll(opts, apps, opts.PressureFrames)
			return pressureResult(rows), err
		}},
	{"quantumsweep", "scheduling-quantum sweep (simulation artifact check)",
		func(opts Options) (Result, error) {
			app := appOr(opts, "IMatMult")
			rows, err := QuantumSweep(opts, app, []sim.Time{
				50 * sim.Microsecond, 200 * sim.Microsecond, 1 * sim.Millisecond})
			return sweepResult{fmt.Sprintf("Scheduling quantum sweep on %s", app), "quantum", rows}, err
		}},
	{"remote", "remote-reference pragma comparison (§4.4)",
		func(opts Options) (Result, error) {
			return RemoteCompare(opts)
		}},
	{"replication", "read-replication ablation (Li-style migration)",
		func(opts Options) (Result, error) {
			return ReplicationCompare(opts, appOr(opts, "IMatMult"))
		}},
	{"table1", "NUMA manager read-fault actions (Table 1)",
		func(opts Options) (Result, error) {
			s, err := ProtocolTable(false)
			return stringResult(s), err
		}},
	{"table2", "NUMA manager write-fault actions (Table 2)",
		func(opts Options) (Result, error) {
			s, err := ProtocolTable(true)
			return stringResult(s), err
		}},
	{"table3", "user times and model parameters (Table 3)",
		func(opts Options) (Result, error) {
			rows, err := Table3(opts)
			return table3Result(rows), err
		}},
	{"table4", "system-time overhead analysis (Table 4)",
		func(opts Options) (Result, error) {
			rows, err := Table4(opts)
			return table4Result(rows), err
		}},
	{"thresholdsweep", "pin-threshold sweep (§2.3.2 boot-time parameter)",
		func(opts Options) (Result, error) {
			app := appOr(opts, "IMatMult")
			rows, err := ThresholdSweep(opts, app, []int{0, 1, 2, 4, 8, 16, -1})
			title := fmt.Sprintf("Pin-threshold sweep on %s", app)
			return sweepResult{title, "threshold", rows}, err
		}},
	{"tournament", "policy zoo x workloads x topologies, ranked",
		func(opts Options) (Result, error) {
			return Tournament(opts)
		}},
	{"unixmaster", "system calls funnelled to one processor (§4.6)",
		func(opts Options) (Result, error) {
			return UnixMasterCompare(opts, appOr(opts, "Syscaller"))
		}},
}

// Compile-time checks that experiment results satisfy the interfaces the
// CLIs rely on.
var (
	_ Result    = FalseSharingResult{}
	_ Result    = AffinityResult{}
	_ Result    = ReplicationResult{}
	_ Result    = RemoteResult{}
	_ Result    = UnixMasterResult{}
	_ Result    = MixResult{}
	_ CSVResult = table3Result(nil)
	_ CSVResult = table4Result(nil)
	_ CSVResult = sweepResult{}
	_ CSVResult = pressureResult{}
	_ CSVResult = availResult{}
	_ CSVResult = TournamentResult{}
)
