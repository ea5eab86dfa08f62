package harness

import (
	"fmt"
	"strings"

	"numasim/internal/ace"
	"numasim/internal/metrics"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// ---------------------------------------------------------------------
// Tables 1 and 2: the NUMA manager's action matrices, derived from the
// implementation itself by driving each (policy decision, page state)
// cell on a probe machine and recording the actions the manager performs.
// ---------------------------------------------------------------------

// protoCell is one derived table cell.
type protoCell struct {
	Actions  []string
	NewState numa.State
}

// deriveProtocolTable exercises the NUMA manager for every cell of the
// paper's Table 1 (write=false) or Table 2 (write=true). A cell's actions
// are the KindAction events that follow the probe request's
// KindDecision, the last one on the trace.
func deriveProtocolTable(write bool) (map[string]protoCell, error) {
	states := []string{"read-only", "global-writable", "lw-own", "lw-other"}
	decisions := []numa.Location{numa.Local, numa.Global}
	out := make(map[string]protoCell)
	for _, dec := range decisions {
		for _, st := range states {
			cfg := ace.DefaultConfig()
			cfg.NProc = 3
			cfg.GlobalFrames = 16
			cfg.LocalFrames = 16
			machine, err := ace.NewMachine(cfg)
			if err != nil {
				return nil, err
			}
			forced := &policy.Forced{Answer: numa.Local}
			mgr := numa.NewManager(machine, forced)
			var trace simtrace.ListSink
			machine.AttachSink(&trace)
			var state numa.State
			var runErr error
			machine.Engine().Spawn("probe", 0, func(th *sim.Thread) {
				pg, err := mgr.NewPage()
				if err != nil {
					runErr = err
					return
				}
				switch st {
				case "read-only":
					mgr.Access(th, pg, 1, false, mmu.ProtReadWrite)
					mgr.Access(th, pg, 2, false, mmu.ProtReadWrite)
				case "global-writable":
					forced.Answer = numa.Global
					mgr.Access(th, pg, 1, true, mmu.ProtReadWrite)
				case "lw-own":
					mgr.Access(th, pg, 0, true, mmu.ProtReadWrite)
				case "lw-other":
					mgr.Access(th, pg, 1, true, mmu.ProtReadWrite)
				}
				forced.Answer = dec
				mgr.Access(th, pg, 0, write, mmu.ProtReadWrite)
				state = pg.State()
			})
			if err := machine.Engine().Run(); err != nil {
				return nil, err
			}
			if runErr != nil {
				return nil, runErr
			}
			var actions []string
			for _, ev := range trace.Events() {
				switch ev.Kind {
				case simtrace.KindDecision:
					actions = nil
				case simtrace.KindAction:
					actions = append(actions, ev.Label)
				}
			}
			out[dec.String()+"/"+st] = protoCell{Actions: actions, NewState: state}
		}
	}
	return out, nil
}

// ProtocolTable renders the paper's Table 1 (write=false) or Table 2
// (write=true) as derived from the implementation.
func ProtocolTable(write bool) (string, error) {
	cells, err := deriveProtocolTable(write)
	if err != nil {
		return "", err
	}
	kind, no := "Read", 1
	if write {
		kind, no = "Write", 2
	}
	headers := []string{"Policy Decision", "Read-Only", "Global-Writable", "LW on own node", "LW on other node"}
	keys := []string{"read-only", "global-writable", "lw-own", "lw-other"}
	var rows [][]string
	for _, dec := range []string{"LOCAL", "GLOBAL"} {
		row := []string{dec}
		for _, k := range keys {
			c := cells[dec+"/"+k]
			acts := strings.Join(c.Actions, "; ")
			if acts == "" {
				acts = "no action"
			}
			row = append(row, fmt.Sprintf("%s -> %s", acts, c.NewState))
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Table %d: NUMA Manager Actions for %s Requests (derived from implementation)\n", no, kind)
	return title + renderTable(headers, rows), nil
}

// ---------------------------------------------------------------------
// Table 3: user times and model parameters for the application mix.
// ---------------------------------------------------------------------

// PaperRow3 is a published Table 3 row.
type PaperRow3 struct {
	Tglobal, Tnuma, Tlocal float64
	Alpha                  float64 // <0 means "na"
	Beta, Gamma            float64
}

// PaperTable3 is the paper's Table 3, for side-by-side reporting.
var PaperTable3 = map[string]PaperRow3{
	"ParMult":  {67.4, 67.4, 67.3, -1, 0.00, 1.00},
	"Gfetch":   {60.2, 60.2, 26.5, 0, 1.0, 2.27},
	"IMatMult": {82.1, 69.0, 68.2, 0.94, 0.26, 1.01},
	"Primes1":  {18502.2, 17413.9, 17413.3, 1.0, 0.06, 1.00},
	"Primes2":  {5754.3, 4972.9, 4968.9, 0.99, 0.16, 1.00},
	"Primes3":  {39.1, 37.4, 28.8, 0.17, 0.36, 1.30},
	"FFT":      {687.4, 449.0, 438.4, 0.96, 0.56, 1.02},
	"PlyTrace": {56.9, 38.8, 38.0, 0.96, 0.50, 1.02},
}

// Table3Apps lists the applications in the paper's row order.
var Table3Apps = []string{"ParMult", "Gfetch", "IMatMult", "Primes1", "Primes2", "Primes3", "FFT", "PlyTrace"}

// Table3Row is one measured Table 3 row. Err carries a failed run's
// summary when the sweep continues past failures (partial results).
type Table3Row struct {
	App   string
	Eval  metrics.Eval
	Paper PaperRow3
	Err   string
}

// Table3Single evaluates one application of Table 3.
func Table3Single(opts Options, app string) (Table3Row, error) {
	e, err := Evaluate(opts, app)
	if err != nil {
		return Table3Row{}, err
	}
	return Table3Row{App: app, Eval: e, Paper: PaperTable3[app]}, nil
}

// Table3 regenerates the paper's Table 3 (E5). The per-application rows
// are independent simulations; they run on the options' worker pool and
// land in the paper's row order regardless of completion order. Under a
// supervisor (timeout/retry/repro-dir) failed applications become
// error-annotated rows and the rest of the table still renders.
func Table3(opts Options) ([]Table3Row, error) {
	opts = opts.withDefaults()
	return partial(opts, len(Table3Apps), func(i int) (row Table3Row, err error) {
		err = opts.supervise("table3-"+Table3Apps[i], func(o Options) (err error) {
			row, err = Table3Single(o, Table3Apps[i])
			return err
		})
		return row, err
	}, func(i int, err error) Table3Row {
		return Table3Row{App: Table3Apps[i], Err: err.Error()}
	})
}

// RenderTable3 renders measured rows with the paper's numbers alongside.
func RenderTable3(rows []Table3Row) string {
	headers := []string{"Application", "Tglobal", "Tnuma", "Tlocal", "alpha", "beta", "gamma",
		"| paper:", "alpha", "beta", "gamma"}
	var body [][]string
	var fails []failedRun
	for _, r := range rows {
		if r.Err != "" {
			fails = append(fails, failedRun{r.App, r.Err})
			continue
		}
		alpha := fmtF(r.Eval.Alpha, 2)
		if r.App == "ParMult" {
			alpha = "na"
		}
		pAlpha := "na"
		if r.Paper.Alpha >= 0 {
			pAlpha = fmtF(r.Paper.Alpha, 2)
		}
		body = append(body, []string{
			r.App,
			fmtF(r.Eval.Tglobal, 2), fmtF(r.Eval.Tnuma, 2), fmtF(r.Eval.Tlocal, 2),
			alpha, fmtF(r.Eval.Beta, 2), fmtF(r.Eval.Gamma, 2),
			"|", pAlpha, fmtF(r.Paper.Beta, 2), fmtF(r.Paper.Gamma, 2),
		})
	}
	return "Table 3: measured user times in (virtual) seconds and computed model parameters\n" +
		renderTable(headers, body) + renderFailures(fails)
}

// RenderTable3CSV renders Table 3 as CSV for plotting.
func RenderTable3CSV(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("app,t_global,t_numa,t_local,alpha,beta,gamma,paper_alpha,paper_beta,paper_gamma\n")
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			r.App, r.Eval.Tglobal, r.Eval.Tnuma, r.Eval.Tlocal,
			r.Eval.Alpha, r.Eval.Beta, r.Eval.Gamma,
			r.Paper.Alpha, r.Paper.Beta, r.Paper.Gamma)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 4: system time overhead of NUMA management.
// ---------------------------------------------------------------------

// PaperRow4 is a published Table 4 row (7-processor runs).
type PaperRow4 struct {
	Snuma, Sglobal, DeltaS, Tnuma float64
	DeltaPct                      float64
}

// PaperTable4 is the paper's Table 4.
var PaperTable4 = map[string]PaperRow4{
	"IMatMult": {4.5, 1.2, 3.3, 82.1, 4.0},
	"Primes1":  {1.4, 2.3, -1, 17413.9, 0},
	"Primes2":  {29.9, 8.5, 21.4, 4972.9, 0.4},
	"Primes3":  {11.2, 1.9, 9.3, 37.4, 24.9},
	"FFT":      {21.1, 10.0, 11.1, 449.0, 2.5},
}

// Table4Apps lists the Table 4 applications in row order.
var Table4Apps = []string{"IMatMult", "Primes1", "Primes2", "Primes3", "FFT"}

// Table4Row is one measured Table 4 row. Times are virtual seconds
// (sim.Ticks); DeltaPct is dimensionless. Err carries a failed run's
// summary when the sweep continues past failures (partial results).
type Table4Row struct {
	App                           string
	Snuma, Sglobal, DeltaS, Tnuma sim.Ticks
	DeltaPct                      float64
	Paper                         PaperRow4
	Err                           string
}

// Table4Single evaluates one application of Table 4.
func Table4Single(opts Options, app string) (Table4Row, error) {
	e, err := Evaluate(opts, app)
	if err != nil {
		return Table4Row{}, err
	}
	r := Table4Row{
		App:     app,
		Snuma:   e.Snuma,
		Sglobal: e.Sglobal,
		DeltaS:  e.DeltaS,
		Tnuma:   e.Tnuma,
		Paper:   PaperTable4[app],
	}
	if e.Tnuma > 0 {
		r.DeltaPct = 100 * float64(e.DeltaS) / float64(e.Tnuma)
	}
	return r, nil
}

// Table4 regenerates the paper's Table 4 (E6): total system time for runs
// on NProc processors. Rows run on the options' worker pool; under a
// supervisor, failed applications become error-annotated rows and the
// rest of the table still renders.
func Table4(opts Options) ([]Table4Row, error) {
	opts = opts.withDefaults()
	return partial(opts, len(Table4Apps), func(i int) (row Table4Row, err error) {
		err = opts.supervise("table4-"+Table4Apps[i], func(o Options) (err error) {
			row, err = Table4Single(o, Table4Apps[i])
			return err
		})
		return row, err
	}, func(i int, err error) Table4Row {
		return Table4Row{App: Table4Apps[i], Err: err.Error()}
	})
}

// RenderTable4 renders measured rows with the paper's numbers alongside.
func RenderTable4(rows []Table4Row) string {
	headers := []string{"Application", "Snuma", "Sglobal", "dS", "Tnuma", "dS/Tnuma",
		"| paper:", "Snuma", "Sglobal", "dS/Tnuma"}
	var body [][]string
	var fails []failedRun
	for _, r := range rows {
		if r.Err != "" {
			fails = append(fails, failedRun{r.App, r.Err})
			continue
		}
		ds := fmtF(r.DeltaS, 2)
		pct := fmt.Sprintf("%.1f%%", r.DeltaPct)
		if r.DeltaS < 0 {
			pct = "na"
		}
		body = append(body, []string{
			r.App, fmtF(r.Snuma, 2), fmtF(r.Sglobal, 2), ds, fmtF(r.Tnuma, 2), pct,
			"|", fmtF(r.Paper.Snuma, 1), fmtF(r.Paper.Sglobal, 1),
			fmt.Sprintf("%.1f%%", r.Paper.DeltaPct),
		})
	}
	return "Table 4: total system time (virtual seconds)\n" + renderTable(headers, body) +
		renderFailures(fails)
}

// ---------------------------------------------------------------------
// Figures 1 and 2: architecture diagrams.
// ---------------------------------------------------------------------

// RenderTable4CSV renders Table 4 as CSV for plotting.
func RenderTable4CSV(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("app,s_numa,s_global,delta_s,t_numa,delta_pct\n")
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.4f,%.4f,%.2f\n",
			r.App, r.Snuma, r.Sglobal, r.DeltaS, r.Tnuma, r.DeltaPct)
	}
	return b.String()
}

// Figure1 renders the ACE memory architecture (E1).
func Figure1(opts Options) (string, error) {
	opts = opts.withDefaults()
	machine, err := ace.NewMachine(opts.config())
	if err != nil {
		return "", err
	}
	return machine.Topology(), nil
}

// Figure2 renders the structure of the ACE pmap layer (E2).
func Figure2() string {
	return `ACE pmap layer (paper Figure 2)

    Mach machine-independent VM        [internal/vm]
                 |
           pmap interface
                 |
           pmap manager                [internal/pmap]
            /          \
     NUMA manager   MMU interface      [internal/numa, internal/mmu]
            |
       NUMA policy                     [internal/policy]
`
}
