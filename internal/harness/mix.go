package harness

import (
	"fmt"
	"strings"

	"numasim/internal/cthreads"
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
	var res MixResult
	err := opts.supervise("mix", func(o Options) error {
		spec, err := o.spec()
		if err != nil {
			return err
		}
		sys, err := metrics.Build(spec)
		if err != nil {
			return err
		}
		workersEach := max(spec.Config.NProc/len(apps), 1)
		var finishes []func() error
		for _, app := range apps {
			inst, err := o.instance(app)
			if err != nil {
				return err
			}
			w, ok := inst.(workloads.Starter)
			if !ok {
				return fmt.Errorf("harness: %s cannot run in a mix", app)
			}
			finishes = append(finishes, w.Start(cthreads.NewShared(sys.Kernel, sys.Sched, app), workersEach))
		}
		name := strings.Join(apps, "+")
		if err := sys.Machine.Engine().Run(); err != nil {
			return sys.Fail(name, err)
		}
		for i, fin := range finishes {
			if err := fin(); err != nil {
				return sys.Fail(name, fmt.Errorf("harness: mix member %s: %w", apps[i], err))
			}
		}
		refs := sys.Machine.TotalRefs()
		ns := sys.Kernel.NUMA().Stats()
		res = MixResult{
			Apps:      apps,
			UserSec:   sys.Machine.Engine().TotalUserTime().Ticks(),
			SysSec:    sys.Machine.Engine().TotalSysTime().Ticks(),
			LocalFrac: refs.LocalFraction(),
			Pins:      ns.Pins,
			Moves:     ns.Moves,
		}
		return nil
	})
	return res, err
}

// Render formats the mix run.
func (r MixResult) Render() string {
	return fmt.Sprintf(`Application mix: %s running concurrently (each verified)
  user %.3fs  sys %.3fs  %.1f%% of references local  %d pins  %d moves
`, strings.Join(r.Apps, " + "), r.UserSec, r.SysSec, 100*r.LocalFrac, r.Pins, r.Moves)
}
