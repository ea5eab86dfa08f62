package harness

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"numasim/internal/chaos"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// drill runs one Gfetch simulation under the options' supervisor, the
// same path every table row takes.
func drill(o Options) error {
	_, err := o.run("drill-Gfetch", "Gfetch", nil)
	return err
}

// bundleFiles finds the single repro bundle under dir and reads its
// files into a map keyed by file name.
func bundleFiles(t *testing.T, dir string) (string, map[string]string) {
	t.Helper()
	all := bundles(t, dir)
	if len(all) != 1 {
		t.Fatalf("want exactly one bundle directory in %s, got %d", dir, len(all))
	}
	for name, files := range all {
		return name, files
	}
	return "", nil
}

// bundles reads every repro bundle under dir, keyed by bundle directory
// name, then by file name.
func bundles(t *testing.T, dir string) map[string]map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]string)
	for _, entry := range entries {
		if !entry.IsDir() {
			t.Fatalf("stray file %s in repro dir %s", entry.Name(), dir)
		}
		bundle := filepath.Join(dir, entry.Name())
		inner, err := os.ReadDir(bundle)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string)
		for _, e := range inner {
			b, err := os.ReadFile(filepath.Join(bundle, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		out[entry.Name()] = files
	}
	return out
}

// TestMixAndRemoteRunSupervised: the mix and remote experiments build
// their machines like every other run. A chaos panic leaves a repro
// bundle per failed run, carrying the state dump and the forensic trace,
// and the mix's machine replays a node-failure schedule.
func TestMixAndRemoteRunSupervised(t *testing.T) {
	for _, name := range []string{"mix", "remote"} {
		dir := t.TempDir()
		e, _ := Lookup(name)
		if _, err := e.Run(Options{
			NProc: 2, Small: true, Parallelism: 1,
			Chaos:    chaos.Config{PanicAt: sim.Millisecond},
			ReproDir: dir,
		}); err == nil {
			t.Errorf("%s: the chaos panic did not fail the run", name)
		}
		all := bundles(t, dir)
		if len(all) == 0 {
			t.Errorf("%s: the failed run left no repro bundle", name)
		}
		for bundle, files := range all {
			if files["statedump.txt"] == "" || files["trace.txt"] == "" {
				t.Errorf("%s: bundle %s lacks statedump.txt or trace.txt", name, bundle)
			}
		}
	}

	var counts simtrace.CountingSink
	e, _ := Lookup("mix")
	if _, err := e.Run(Options{
		NProc: 4, Small: true, Topology: "4socket",
		Chaos: chaos.Config{Health: []chaos.HealthEvent{
			{At: 2 * sim.Millisecond, Kind: chaos.NodeOffline, Node: 1},
		}},
		TraceSink: &counts,
	}); err != nil {
		t.Fatal(err)
	}
	if counts.Count(simtrace.KindNodeOffline) == 0 {
		t.Error("the mix ignored its node-failure schedule")
	}
}

// TestSupervisorPanicWritesBundle: a chaos-injected panic mid-protocol
// is recovered into an error, and the repro bundle carries the failure,
// the config, the forensic trace, the state dump and the command line.
func TestSupervisorPanicWritesBundle(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		NProc: 2, Small: true, Parallelism: 1,
		Chaos:    chaos.Config{PanicAt: sim.Millisecond},
		ReproDir: dir,
		Command:  "tables -small -nproc 2 -chaos-panic-at 1ms",
	}.withDefaults()
	err := drill(opts)
	if err == nil || !strings.Contains(err.Error(), "chaos: injected panic") {
		t.Fatalf("err = %v, want recovered chaos panic", err)
	}
	name, files := bundleFiles(t, dir)
	if !strings.HasPrefix(name, "drill-Gfetch") {
		t.Errorf("bundle dir %q not named after the unit", name)
	}
	if got := files["error.txt"]; !strings.Contains(got, "chaos: injected panic") {
		t.Errorf("error.txt missing failure:\n%s", got)
	}
	if got := files["config.txt"]; !strings.Contains(got, "unit: drill-Gfetch (attempt 1)") ||
		!strings.Contains(got, "chaos:") {
		t.Errorf("config.txt missing unit or chaos description:\n%s", got)
	}
	if got := files["statedump.txt"]; !strings.Contains(got, "=== machine state at ") {
		t.Errorf("statedump.txt missing dump:\n%s", got)
	}
	if got := files["trace.txt"]; got == "" {
		t.Error("trace.txt missing or empty; the forensic ring was not captured")
	}
	if got := files["repro.sh"]; !strings.Contains(got, opts.Command) {
		t.Errorf("repro.sh missing command line:\n%s", got)
	}
}

// TestReproBundleDeterminism: the bundle's promise is that the same seed
// replays the same failure. Two independent supervised runs of the same
// failing configuration must produce byte-identical state dumps and
// forensic traces.
func TestReproBundleDeterminism(t *testing.T) {
	run := func() map[string]string {
		dir := t.TempDir()
		opts := Options{
			NProc: 2, Small: true, Parallelism: 1,
			Chaos:    chaos.Config{PanicAt: sim.Millisecond},
			ReproDir: dir,
		}.withDefaults()
		if err := drill(opts); err == nil {
			t.Fatal("drill unexpectedly succeeded")
		}
		_, files := bundleFiles(t, dir)
		return files
	}
	a, b := run(), run()
	for _, f := range []string{"statedump.txt", "trace.txt", "config.txt"} {
		if a[f] == "" {
			t.Errorf("%s missing from bundle", f)
			continue
		}
		if a[f] != b[f] {
			t.Errorf("%s differs between identical runs:\n--- first\n%s\n--- second\n%s", f, a[f], b[f])
		}
	}
}

// TestSupervisorRecoversHostPanic: a panic outside the engine (harness
// code itself, not a simulated thread) is recovered by the supervisor
// into an error carrying the goroutine stack.
func TestSupervisorRecoversHostPanic(t *testing.T) {
	opts := Options{Retries: 0, Timeout: time.Minute}.withDefaults()
	err := opts.supervise("host-panic", func(Options) error {
		panic("harness bug")
	})
	if err == nil || !strings.Contains(err.Error(), "host-panic panicked: harness bug") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("recovered panic lost its stack trace: %v", err)
	}
}

// TestSupervisorRetries: a deterministic failure fails every attempt;
// the supervisor writes one bundle per attempt and returns the last
// error.
func TestSupervisorRetries(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		NProc: 2, Small: true, Parallelism: 1,
		Chaos:    chaos.Config{PanicAt: sim.Millisecond},
		ReproDir: dir,
		Retries:  2,
	}.withDefaults()
	if err := drill(opts); err == nil {
		t.Fatal("deterministic failure retried into success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("bundles = %d, want one per attempt (3)", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.Name()] = true
	}
	for _, want := range []string{"drill-Gfetch", "drill-Gfetch-attempt2", "drill-Gfetch-attempt3"} {
		if !seen[want] {
			t.Errorf("missing bundle %q in %v", want, entries)
		}
	}
}

// TestSupervisorTimeout: a chaos stall drill with the virtual-time
// watchdog disabled spins forever; the wall-clock watchdog must stop the
// engine and report a budget error wrapping a typed sim.StoppedError.
func TestSupervisorTimeout(t *testing.T) {
	opts := Options{
		NProc: 2, Small: true, Parallelism: 1,
		Chaos:      chaos.Config{StallAt: sim.Millisecond},
		StallLimit: -1, // disable the virtual-time watchdog: only the wall clock can save us
		Timeout:    200 * time.Millisecond,
		KeepGoing:  false,
	}.withDefaults()
	err := drill(opts)
	if err == nil {
		t.Fatal("stalled run returned success")
	}
	if !strings.Contains(err.Error(), "wall-clock budget") {
		t.Errorf("err = %v, want wall-clock budget report", err)
	}
	var stopped *sim.StoppedError
	if !errors.As(err, &stopped) {
		t.Errorf("err chain %v does not reach *sim.StoppedError", err)
	}
}

// TestStallWatchdogKillsDrill: with the virtual-time watchdog on (a low
// limit keeps the test fast), the same stall drill dies deterministically
// with a typed StallError carrying the dump — no wall clock involved.
func TestStallWatchdogKillsDrill(t *testing.T) {
	opts := Options{
		NProc: 2, Small: true, Parallelism: 1,
		Chaos:      chaos.Config{StallAt: sim.Millisecond},
		StallLimit: 256,
		KeepGoing:  true,
	}.withDefaults()
	err := drill(opts)
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *sim.StallError", err)
	}
	if stall.Dump == nil {
		t.Error("stall error carries no dump")
	}
}

// TestTable3PartialResults: with chaos panicking every run and a repro
// dir set, the sweep completes with per-row errors instead of dying, and
// the rendered table diverts failures to the footer.
func TestTable3PartialResults(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		NProc: 2, Small: true,
		Chaos:    chaos.Config{PanicAt: sim.Millisecond},
		ReproDir: dir,
	}
	rows, err := Table3(opts)
	if err != nil {
		t.Fatalf("partial sweep aborted: %v", err)
	}
	if len(rows) != len(Table3Apps) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table3Apps))
	}
	for _, r := range rows {
		if r.Err == "" {
			t.Errorf("%s: chaos panic did not surface in the row", r.App)
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "failed runs:") {
		t.Errorf("render missing failure footer:\n%s", out)
	}
	for _, app := range Table3Apps {
		if !strings.Contains(out, app) {
			t.Errorf("failed app %s missing from render", app)
		}
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != len(Table3Apps) {
		t.Errorf("bundles = %d, want one per failed row (%d)", len(entries), len(Table3Apps))
	}
	// The CSV renderer skips failed rows entirely.
	if csv := RenderTable3CSV(rows); strings.Contains(csv, "Gfetch") {
		t.Errorf("CSV contains failed rows:\n%s", csv)
	}
}

// TestRenderUnchangedWithoutFailures: rows without errors render with no
// footer — the byte-identity contract for healthy runs.
func TestRenderUnchangedWithoutFailures(t *testing.T) {
	rows, err := Table3(Options{NProc: 2, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable3(rows)
	if strings.Contains(out, "failed runs:") {
		t.Errorf("healthy render grew a failure footer:\n%s", out)
	}
}

// TestAuditDoesNotChangeResults: the online auditor only reads the
// directory, so audited and unaudited evaluations are identical.
func TestAuditDoesNotChangeResults(t *testing.T) {
	base := Options{NProc: 2, Small: true, Parallelism: 1}
	plain, err := Table3Single(base, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	audited := base
	audited.Audit = 1
	withAudit, err := Table3Single(audited, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Eval, withAudit.Eval) {
		t.Errorf("auditing changed results:\nplain  %+v\naudited %+v", plain.Eval, withAudit.Eval)
	}
}

// TestPoolRecoversPanics: a panicking task is returned as an error with
// the stack attached while the other tasks keep draining.
func TestPoolRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 8)
		errs := NewPool(workers).RunAll(len(ran), func(i int) error {
			ran[i] = true
			if i == 3 {
				panic("task exploded")
			}
			return nil
		})
		for i, err := range errs {
			if i == 3 {
				if err == nil || !strings.Contains(err.Error(), "task 3 panicked: task exploded") ||
					!strings.Contains(err.Error(), "goroutine") {
					t.Errorf("workers=%d: panic error = %v", workers, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("workers=%d: task %d err = %v", workers, i, err)
			}
		}
		for i, r := range ran {
			if !r {
				t.Errorf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

// TestSupervisorOffIsFree: with no robustness features requested there
// is no supervisor at all, so the default path cannot slow down or
// reorder anything.
func TestSupervisorOffIsFree(t *testing.T) {
	if s := (Options{}).supervisor(); s != nil {
		t.Errorf("zero options built a supervisor: %+v", s)
	}
	if s := (Options{Timeout: time.Second}).supervisor(); s == nil {
		t.Error("timeout did not enable supervision")
	}
	if s := (Options{ReproDir: "x"}).supervisor(); s == nil {
		t.Error("repro dir did not enable supervision")
	}
	if s := (Options{Retries: 1}).supervisor(); s == nil {
		t.Error("retries did not enable supervision")
	}
}
