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
	"numasim/internal/numa"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// Supervisor wraps each experiment unit — one table row, one sweep
// point — in panic recovery, a wall-clock timeout, and bounded retry.
// When a unit still fails it writes a repro bundle: everything needed to
// re-run exactly the failing simulation (config, chaos script, recent
// trace, machine-state dump, and the ready-to-run command line). The
// deterministic engine makes the bundle an honest promise: the same seed
// replays the same failure.
type Supervisor struct {
	// Timeout is the wall-clock budget per attempt; 0 means none. On
	// expiry the supervisor stops every engine the attempt built, which
	// surfaces as a sim.StoppedError from the run.
	Timeout time.Duration
	// Retries is how many times a failed unit is re-run before giving up
	// (0 = single attempt).
	Retries int
	// ReproDir, when non-empty, receives one bundle directory per failed
	// attempt.
	ReproDir string

	// opts are the options that built the supervised experiment, recorded
	// in bundles so a reader sees the exact knobs.
	opts Options
}

// supervisor builds the options' supervisor, or nil when no supervision
// feature is requested — the nil path adds zero overhead and keeps
// default runs byte-identical.
func (o Options) supervisor() *Supervisor {
	if o.Timeout <= 0 && o.Retries <= 0 && o.ReproDir == "" {
		return nil
	}
	return &Supervisor{Timeout: o.Timeout, Retries: o.Retries, ReproDir: o.ReproDir, opts: o}
}

// Do runs one experiment unit under supervision. fn receives an observe
// hook it must arrange to be called for every machine the unit builds
// (the harness plumbs it through metrics.RunSpec.OnMachine); the hook is
// how the wall-clock watchdog reaches engines to stop them. Do returns
// nil as soon as an attempt succeeds, and the last attempt's error after
// the retry budget is spent, annotated when its repro bundle could not be
// written.
func (s *Supervisor) Do(label string, fn func(observe func(*ace.Machine)) error) error {
	var last error
	for attempt := 1; attempt <= s.Retries+1; attempt++ {
		err := s.attempt(label, fn)
		if err == nil {
			return nil
		}
		if s.ReproDir != "" {
			if werr := s.writeBundle(label, attempt, err); werr != nil {
				err = fmt.Errorf("%w (repro bundle not written: %v)", err, werr)
			}
		}
		last = err
	}
	return last
}

// attempt runs fn once with panic recovery and the wall-clock watchdog.
// The watchdog is the one place the harness legitimately reads the host
// clock — it bounds how long a wedged simulation may burn wall time, and
// never feeds the reading back into simulated time — hence the
// determinism-lint escape below.
//
//numalint:hostside
func (s *Supervisor) attempt(label string, fn func(observe func(*ace.Machine)) error) (err error) {
	var mu sync.Mutex
	var engines []*sim.Engine
	timedOut := false
	observe := func(m *ace.Machine) {
		mu.Lock()
		defer mu.Unlock()
		if timedOut {
			// The deadline already passed: stop the newcomer immediately.
			m.Engine().Stop()
			return
		}
		engines = append(engines, m.Engine())
	}
	if s.Timeout > 0 {
		timer := time.AfterFunc(s.Timeout, func() {
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
			err = fmt.Errorf("harness: %s exceeded the %v wall-clock budget: %w", label, s.Timeout, err)
		}
	}()
	return fn(observe)
}

// writeBundle writes one repro bundle directory for a failed attempt.
// The bundle holds error.txt (the failure, stack
// included for panics), config.txt (machine, chaos and robustness knobs),
// trace.txt (the forensic ring, oldest first), statedump.txt (the
// machine-state dump at failure), and repro.sh (the recorded command
// line, ready to re-run).
func (s *Supervisor) writeBundle(label string, attempt int, runErr error) error {
	dir, err := s.bundleDir(label, attempt)
	if err != nil {
		return err
	}
	dump, events := extractForensics(runErr)
	files := map[string]string{
		"error.txt":  runErr.Error() + "\n",
		"config.txt": s.describe(label, attempt),
	}
	if len(events) > 0 {
		files["trace.txt"] = simtrace.FormatEvents(events)
	}
	if dump != "" {
		files["statedump.txt"] = dump
	}
	files["repro.sh"] = s.reproScript(label)
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// bundleDir creates a fresh directory for one failed attempt, suffixing
// past the first attempt and any name collisions. Only an existing path
// counts as a collision; any other Stat failure (a ReproDir that is a
// regular file, say) is left for MkdirAll to report.
func (s *Supervisor) bundleDir(label string, attempt int) (string, error) {
	base := filepath.Join(s.ReproDir, sanitizeLabel(label))
	if attempt > 1 {
		base = fmt.Sprintf("%s-attempt%d", base, attempt)
	}
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

// extractForensics mines an error chain for the gathered forensics: the
// rendered state dump and the forensic ring contents. metrics.RunError
// carries both; engine errors and protocol violations carry their own.
func extractForensics(err error) (dump string, events []simtrace.Event) {
	var re *metrics.RunError
	if errors.As(err, &re) {
		dump, events = re.Dump, re.Events
	}
	if dump == "" {
		var de *sim.DeadlockError
		var st *sim.StallError
		var so *sim.StoppedError
		switch {
		case errors.As(err, &de) && de.Dump != nil:
			dump = de.Dump.Render()
		case errors.As(err, &st) && st.Dump != nil:
			dump = st.Dump.Render()
		case errors.As(err, &so) && so.Dump != nil:
			dump = so.Dump.Render()
		}
	}
	if len(events) == 0 {
		var pv *numa.ProtocolViolationError
		if errors.As(err, &pv) {
			events = pv.Trace
		}
	}
	return dump, events
}

// describe renders the knobs that produced the failing run.
func (s *Supervisor) describe(label string, attempt int) string {
	o := s.opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "unit: %s (attempt %d)\n", label, attempt)
	fmt.Fprintf(&b, "machine: %+v\n", o.config())
	fmt.Fprintf(&b, "options: nproc=%d workers=%d policy=%q appsize=%d app=%q small=%v parallelism=%d\n",
		o.NProc, o.Workers, o.Policy, o.AppSize, o.App, o.Small, o.Parallelism)
	fmt.Fprintf(&b, "robustness: audit=%d stall-limit=%d timeout=%v retries=%d\n",
		o.Audit, o.StallLimit, o.Timeout, o.Retries)
	fmt.Fprintf(&b, "chaos: %+v\n", o.Chaos)
	return b.String()
}

// reproScript renders the bundle's ready-to-run command line. The
// simulation is deterministic, so re-running the recorded command replays
// the identical failure (same seed, same state dump).
func (s *Supervisor) reproScript(label string) string {
	cmd := s.opts.Command
	if cmd == "" {
		cmd = "# (no command line was recorded; re-run the harness with the options in config.txt)"
	}
	return fmt.Sprintf("#!/bin/sh\n# repro bundle for %s — deterministic: same seed, same failure\n%s\n", label, cmd)
}
