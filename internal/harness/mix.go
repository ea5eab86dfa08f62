package harness

import (
	"fmt"
	"strings"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/cthreads"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/vm"
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
// application's own verification must pass.
func MixRun(opts Options, apps []string) (MixResult, error) {
	opts = opts.withDefaults()
	cfg := opts.config()
	machine, err := ace.NewMachine(cfg)
	if err != nil {
		return MixResult{}, err
	}
	if opts.TraceSink != nil {
		machine.AttachSink(opts.TraceSink)
	}
	pol, err := opts.policy()
	if err != nil {
		return MixResult{}, err
	}
	kernel := vm.NewKernel(machine, pol)
	if opts.Chaos.Enabled() {
		kernel.NUMA().SetChaos(chaos.New(opts.Chaos))
	}
	scheduler := sched.New(kernel, sched.Affinity)

	workersEach := cfg.NProc / len(apps)
	if workersEach < 1 {
		workersEach = 1
	}
	var finishes []func() error
	for _, app := range apps {
		inst, err := opts.instance(app)
		if err != nil {
			return MixResult{}, err
		}
		w, ok := inst.(workloads.Starter)
		if !ok {
			return MixResult{}, fmt.Errorf("harness: %s cannot run in a mix", app)
		}
		rt := cthreads.NewShared(kernel, scheduler, app)
		finishes = append(finishes, w.Start(rt, workersEach))
	}
	if err := machine.Engine().Run(); err != nil {
		return MixResult{}, err
	}
	for i, fin := range finishes {
		if err := fin(); err != nil {
			return MixResult{}, fmt.Errorf("harness: mix member %s: %w", apps[i], err)
		}
	}
	refs := machine.TotalRefs()
	ns := kernel.NUMA().Stats()
	return MixResult{
		Apps:      apps,
		UserSec:   machine.Engine().TotalUserTime().Ticks(),
		SysSec:    machine.Engine().TotalSysTime().Ticks(),
		LocalFrac: refs.LocalFraction(),
		Pins:      ns.Pins,
		Moves:     ns.Moves,
	}, nil
}

// Render formats the mix run.
func (r MixResult) Render() string {
	return fmt.Sprintf(`Application mix: %s running concurrently (each verified)
  user %.3fs  sys %.3fs  %.1f%% of references local  %d pins  %d moves
`, strings.Join(r.Apps, " + "), r.UserSec, r.SysSec, 100*r.LocalFrac, r.Pins, r.Moves)
}
