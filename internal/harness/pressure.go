package harness

import (
	"fmt"
	"strings"

	"numasim/internal/metrics"
	"numasim/internal/sim"
)

// ---------------------------------------------------------------------
// Memory pressure: the paper's machines had small local memories (the
// ACE's processor modules held 8 MB each), but its evaluation never runs
// them out. This experiment does: each application at shrinking
// per-processor local-frame budgets, against its unconstrained run as
// baseline, shows how gracefully the placement policy degrades when the
// reclaimer and the global-fallback path start doing real work.
// ---------------------------------------------------------------------

// DefaultPressureFrames are the local-frame budgets the sweep uses when
// the caller does not name any.
var DefaultPressureFrames = []int{64, 16, 4}

// PressureRow is one point of a local-memory pressure sweep. Times are
// virtual seconds (sim.Ticks).
type PressureRow struct {
	// App is the application measured.
	App string
	// LocalFrames is the per-processor frame budget; 0 marks the
	// unconstrained baseline row.
	LocalFrames  int
	Tnuma, Snuma sim.Ticks
	// Slowdown is total run time (user+sys) relative to the same
	// application's baseline row.
	Slowdown float64
	// LocalFrac is the measured fraction of references served locally.
	LocalFrac float64
	// Protocol pressure counters for the run.
	Fallbacks, Evictions, Retries, ChaosFaults uint64
	// Err carries a failed run's summary when the sweep continues past
	// failures (partial results).
	Err string
}

// PressureSweepAll measures every listed application at every budget.
// All (application, budget) pairs run concurrently (bounded by
// opts.Parallelism); each is an independent deterministic simulation, so
// the table is byte-identical at every setting. An empty apps slice
// selects the paper's Table 3 applications.
func PressureSweepAll(opts Options, apps []string, frames []int) ([]PressureRow, error) {
	opts = opts.withDefaults()
	if len(apps) == 0 {
		apps = Table3Apps
	}
	if len(frames) == 0 {
		frames = DefaultPressureFrames
	}
	points := append([]int{0}, frames...)
	rows, err := partial(opts, len(apps)*len(points), func(i int) (PressureRow, error) {
		app, budget := apps[i/len(points)], points[i%len(points)]
		label := fmt.Sprintf("pressure-%s-%s", app, pressureParam(budget))
		res, err := opts.run(label, app, func(s *metrics.RunSpec) {
			if budget > 0 {
				s.Config.LocalFrames = budget
			}
		})
		if err != nil {
			return PressureRow{}, fmt.Errorf("pressure sweep %s at %d local frames: %w", app, budget, err)
		}
		return PressureRow{
			App:         app,
			LocalFrames: budget,
			Tnuma:       res.UserSec, Snuma: res.SysSec,
			LocalFrac: res.Refs.LocalFraction(),
			Fallbacks: res.NUMA.LocalFallback, Evictions: res.NUMA.Evictions,
			Retries: res.NUMA.Retries, ChaosFaults: res.NUMA.ChaosFaults,
		}, nil
	}, func(i int, err error) PressureRow {
		return PressureRow{App: apps[i/len(points)], LocalFrames: points[i%len(points)], Err: err.Error()}
	})
	if err != nil {
		return nil, err
	}
	// Each application's rows are contiguous and lead with its baseline.
	for a := 0; a < len(apps); a++ {
		base := rows[a*len(points)].Tnuma + rows[a*len(points)].Snuma
		for p := 0; p < len(points); p++ {
			r := &rows[a*len(points)+p]
			if base > 0 && r.Err == "" {
				r.Slowdown = float64((r.Tnuma + r.Snuma) / base)
			}
		}
	}
	return rows, nil
}

// pressureParam renders the frame-budget column: the baseline row is
// unconstrained.
func pressureParam(frames int) string {
	if frames == 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", frames)
}

// RenderPressure formats a pressure sweep.
func RenderPressure(rows []PressureRow) string {
	headers := []string{"app", "local frames", "Tuser", "Tsys", "slowdown", "local refs",
		"fallbacks", "evictions", "retries", "faults"}
	var body [][]string
	var fails []failedRun
	for _, r := range rows {
		if r.Err != "" {
			fails = append(fails, failedRun{
				fmt.Sprintf("%s@%s", r.App, pressureParam(r.LocalFrames)), r.Err,
			})
			continue
		}
		body = append(body, []string{
			r.App, pressureParam(r.LocalFrames), fmtF(r.Tnuma, 3), fmtF(r.Snuma, 3),
			fmtF(r.Slowdown, 2) + "x", fmtF(r.LocalFrac, 3),
			fmt.Sprintf("%d", r.Fallbacks), fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.ChaosFaults),
		})
	}
	return "Memory pressure: slowdown under shrinking per-processor local memory\n" +
		renderTable(headers, body) + renderFailures(fails)
}

// RenderPressureCSV renders a pressure sweep as CSV, ready for plotting.
func RenderPressureCSV(rows []PressureRow) string {
	var b strings.Builder
	b.WriteString("app,local_frames,user_sec,sys_sec,slowdown,local_frac,fallbacks,evictions,retries,chaos_faults\n")
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		fmt.Fprintf(&b, "%s,%d,%.6f,%.6f,%.4f,%.4f,%d,%d,%d,%d\n",
			r.App, r.LocalFrames, r.Tnuma, r.Snuma, r.Slowdown, r.LocalFrac,
			r.Fallbacks, r.Evictions, r.Retries, r.ChaosFaults)
	}
	return b.String()
}
