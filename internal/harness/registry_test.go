package harness

import (
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"numasim/internal/ace"
	"numasim/internal/mem"
)

// TestRegistryLookup: lookup is case-insensitive and misses are reported.
func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"table3", "Table3", "TABLE3", "pressureSweep"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missed", name)
		}
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("Lookup invented an experiment")
	}
}

// TestRegistryNames: the name list is sorted, unique, and consistent with
// Lookup.
func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("names unsorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[strings.ToLower(n)] {
			t.Errorf("duplicate name %q", n)
		}
		seen[strings.ToLower(n)] = true
		e, ok := Lookup(n)
		if !ok {
			t.Errorf("listed name %q does not look up", n)
			continue
		}
		if e.Name != n {
			t.Errorf("Lookup(%q).Name = %q", n, e.Name)
		}
		if e.Describe == "" {
			t.Errorf("%q has no description", n)
		}
	}
}

// TestTablesSequenceRegistered: every experiment the tables command prints
// by default must exist in the registry.
func TestTablesSequenceRegistered(t *testing.T) {
	for _, name := range TablesSequence {
		if _, ok := Lookup(name); !ok {
			t.Errorf("TablesSequence entry %q not registered", name)
		}
	}
}

// TestRegistryExperimentsRun: every registered experiment runs end to end
// on a small configuration and renders non-empty output.
func TestRegistryExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	opts := Options{NProc: 3, Small: true, App: "Gfetch", PressureFrames: []int{8}}
	for _, name := range Names() {
		e, _ := Lookup(name)
		res, err := e.Run(opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Render() == "" {
			t.Errorf("%s rendered nothing", name)
		}
	}
}

// TestRegistryFreesMachines: every registered experiment lets each run's
// machine go before it builds the next, so a sequential experiment holds
// one machine at a time. Each machine's memory carries a finalizer (the
// machine itself sits in a reference cycle, whose finalizers never run),
// and each build first collects until every earlier machine's finalizer
// has run. An experiment that keeps a finished run reachable, through a
// workload instance that holds its task say, fails here by name.
func TestRegistryFreesMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	for _, name := range Names() {
		e, _ := Lookup(name)
		var live atomic.Int64
		built, held := 0, 0
		opts := Options{NProc: 3, Small: true, Parallelism: 1}
		opts.onMachine = func(m *ace.Machine) {
			if !collected(&live) {
				held++
			}
			built++
			live.Add(1)
			runtime.SetFinalizer(m.Memory(), func(*mem.Memory) { live.Add(-1) })
		}
		if _, err := e.Run(opts); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if held > 0 {
			t.Errorf("%s: %d of %d machines were built while an earlier machine was still reachable", name, held, built)
		}
	}
}

// collected runs the collector until live reaches zero, giving the
// finalizer goroutine a moment after each cycle, and reports whether it
// did within a bounded wait.
func collected(live *atomic.Int64) bool {
	for deadline := time.Now().Add(time.Second); live.Load() > 0; {
		if time.Now().After(deadline) {
			return false
		}
		runtime.GC()
		time.Sleep(100 * time.Microsecond)
	}
	return true
}
