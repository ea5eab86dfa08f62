package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"numasim/internal/ace"
	"numasim/internal/metrics"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// supervise runs one experiment unit — one table row's evaluation, one
// sweep point — under the options' supervision: panic recovery and a
// wall-clock timeout. fn receives the options with a machine hook that
// every run it makes must install (spec does, through
// metrics.RunSpec.OnMachine); the hook is how the wall-clock watchdog
// reaches engines to stop them. When the unit fails and ReproDir is set,
// supervise writes a repro bundle: everything needed to re-run exactly
// the failing simulation (config, chaos script, recent trace,
// machine-state dump, and the ready-to-run command line). The
// deterministic engine makes the bundle an honest promise: the same seed
// replays the same failure, so a failed unit is not retried. supervise
// returns the unit's error, annotated when its repro bundle could not be
// written. With no Timeout or ReproDir it runs fn directly, so default
// runs pay nothing and stay byte-identical.
//
// The watchdog is the one place the harness legitimately reads the host
// clock — it bounds how long a wedged simulation may burn wall time, and
// never feeds the reading back into simulated time — hence the
// determinism-lint escape below.
//
//numalint:hostside
func (o Options) supervise(label string, fn func(Options) error) (err error) {
	if o.Timeout <= 0 && o.ReproDir == "" {
		return fn(o)
	}
	var mu sync.Mutex
	var engines []*sim.Engine
	timedOut := false
	o.onMachine = func(m *ace.Machine) {
		mu.Lock()
		defer mu.Unlock()
		if timedOut {
			// The deadline already passed: stop the newcomer immediately.
			m.Engine().Stop()
			return
		}
		engines = append(engines, m.Engine())
	}
	if o.Timeout > 0 {
		timer := time.AfterFunc(o.Timeout, func() {
			mu.Lock()
			defer mu.Unlock()
			timedOut = true
			for _, e := range engines {
				e.Stop()
			}
		})
		defer timer.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: %s panicked: %v\n%s", label, r, debug.Stack())
		}
		mu.Lock()
		expired := timedOut
		mu.Unlock()
		if expired && err != nil {
			err = fmt.Errorf("harness: %s exceeded the %v wall-clock budget: %w", label, o.Timeout, err)
		}
		if err != nil && o.ReproDir != "" {
			if werr := o.writeBundle(label, err); werr != nil {
				err = fmt.Errorf("%w (repro bundle not written: %v)", err, werr)
			}
		}
	}()
	return fn(o)
}

// writeBundle writes one repro bundle directory for a failed unit.
// The bundle holds error.txt (the failure, stack included for panics),
// config.txt (machine, chaos and robustness knobs) and repro.sh (the
// recorded command line, ready to re-run); a failed run's
// *metrics.RunError adds trace.txt (the forensic ring, oldest first)
// and statedump.txt (the machine-state dump at failure).
func (o Options) writeBundle(label string, runErr error) error {
	dir, err := o.bundleDir(label)
	if err != nil {
		return err
	}
	files := map[string]string{
		"error.txt":  runErr.Error() + "\n",
		"config.txt": o.describe(label),
		"repro.sh":   o.reproScript(label),
	}
	var re *metrics.RunError
	if errors.As(runErr, &re) {
		if len(re.Events) > 0 {
			files["trace.txt"] = simtrace.FormatEvents(re.Events)
		}
		files["statedump.txt"] = re.Dump
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// bundleDir creates a fresh directory for one failed unit, suffixing
// past any name collisions. Only an existing path counts as a collision;
// any other Stat failure (a ReproDir that is a regular file, say) is left
// for MkdirAll to report.
func (o Options) bundleDir(label string) (string, error) {
	base := filepath.Join(o.ReproDir, sanitizeLabel(label))
	dir := base
	for i := 2; ; i++ {
		if _, err := os.Stat(dir); err != nil {
			break
		}
		dir = fmt.Sprintf("%s-%d", base, i)
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// sanitizeLabel maps an experiment-unit label to a safe directory name.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, label)
}

// describe renders the knobs that produced the failing run.
func (o Options) describe(label string) string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "unit: %s\n", label)
	fmt.Fprintf(&b, "machine: %+v\n", o.config())
	fmt.Fprintf(&b, "options: nproc=%d workers=%d policy=%q appsize=%d app=%q small=%v parallelism=%d\n",
		o.NProc, o.Workers, o.Policy, o.AppSize, o.App, o.Small, o.Parallelism)
	fmt.Fprintf(&b, "robustness: audit=%d stall-limit=%d timeout=%v\n",
		o.Audit, o.StallLimit, o.Timeout)
	fmt.Fprintf(&b, "chaos: %+v\n", o.Chaos)
	return b.String()
}

// reproScript renders the bundle's ready-to-run command line. The
// simulation is deterministic, so re-running the recorded command replays
// the identical failure (same seed, same state dump).
func (o Options) reproScript(label string) string {
	cmd := o.Command
	if cmd == "" {
		cmd = "# (no command line was recorded; re-run the harness with the options in config.txt)"
	}
	return fmt.Sprintf("#!/bin/sh\n# repro bundle for %s — deterministic: same seed, same failure\n%s\n", label, cmd)
}
