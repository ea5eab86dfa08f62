package harness

import (
	"fmt"
	"strings"

	"numasim/internal/metrics"
	"numasim/internal/sim"
	"numasim/internal/workloads"
)

// MixResult reports a multiprogrammed run: several applications executing
// concurrently, each in its own task, on one machine. The paper's
// introduction claims OS-level placement "address[es] the locality needs
// of the entire application mix, a task that cannot be accomplished
// through independent modification of individual applications".
type MixResult struct {
	Apps      []string
	UserSec   sim.Ticks
	SysSec    sim.Ticks
	LocalFrac float64
	Pins      uint64
	Moves     uint64
}

// MixRun executes the named applications concurrently under the options'
// policy, splitting the machine's processors between them. Every
// application's own verification must pass. The mix is one unit under
// the options' supervisor, built like every other run.
func MixRun(opts Options, apps []string) (MixResult, error) {
	opts = opts.withDefaults()
	var r metrics.RunResult
	err := opts.supervise("mix", func(o Options) error {
		ws := make([]workloads.Workload, len(apps))
		for i, app := range apps {
			var err error
			if ws[i], err = o.instance(app); err != nil {
				return err
			}
		}
		spec, err := o.spec()
		if err != nil {
			return err
		}
		spec.Workers = max(o.NProc/len(apps), 1)
		r, err = metrics.Run(spec, ws...)
		return err
	})
	if err != nil {
		return MixResult{}, err
	}
	return MixResult{
		Apps:      apps,
		UserSec:   r.UserSec,
		SysSec:    r.SysSec,
		LocalFrac: r.Refs.LocalFraction(),
		Pins:      r.NUMA.Pins,
		Moves:     r.NUMA.Moves,
	}, nil
}

// Render formats the mix run.
func (r MixResult) Render() string {
	return fmt.Sprintf(`Application mix: %s running concurrently (each verified)
  user %.3fs  sys %.3fs  %.1f%% of references local  %d pins  %d moves
`, strings.Join(r.Apps, " + "), r.UserSec, r.SysSec, 100*r.LocalFrac, r.Pins, r.Moves)
}
