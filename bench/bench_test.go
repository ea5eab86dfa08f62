package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/harness"
)

// TestWorkloadsSmoke runs every workload's repetition in-process at the
// reduced sizes and checks that it reports every end-to-end metric. The
// repetition itself fails when the workload's set-up plan does not list
// one machine per simulation its result rows show.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runRep(w, 42, true, "")
			if r.Err != "" {
				t.Fatal(r.Err)
			}
			if err := checkRep(w, 7, r, expected{Seed: 7, Digests: map[string]string{w.name: r.Digests[0]}}, ""); err != nil {
				t.Fatal(err)
			}
			got := endToEndValues(r)
			for _, d := range endToEnd {
				if v, ok := got[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v, %v; want a positive value", d.name, v, ok)
				}
			}
		})
	}
}

// TestSetupPlanMismatch checks that a repetition fails when the set-up
// plan lists fewer machines than the experiment ran simulations.
func TestSetupPlanMismatch(t *testing.T) {
	w := workload{
		name:    "fake",
		options: func(int64, bool) harness.Options { return harness.Options{NProc: 1, Small: true} },
		run: func(harness.Options, bool) (runOutput, error) {
			return runOutput{csv: []string{"x"}, counts: map[string]float64{}, runs: 2}, nil
		},
		configs: func(o harness.Options, _ bool) []ace.Config { return []ace.Config{machineConfig(o)} },
	}
	if r := runRep(w, 42, true, ""); !strings.Contains(r.Err, "set-up lists 1 machines") {
		t.Errorf("runRep error = %q, want a set-up plan mismatch", r.Err)
	}
}

// TestTracedRepCounts checks that a traced repetition counts events
// through the sink and writes a profile.
func TestTracedRepCounts(t *testing.T) {
	w, _ := lookup("table3-paper")
	r := runRep(w, 42, true, t.TempDir()+"/cpu.pprof")
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	for _, name := range []string{"sim.dispatches", "vm.faults", "pmap.enters", "ace.refs", "runtime.alloc_mb"} {
		if r.Counts[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.Counts[name])
		}
	}
}

// TestNames checks the names and units the benchmark emits against the
// result format: names of letters, digits, '_', '.' and '-', each used
// once.
func TestNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var defs []metricDef
	defs = append(defs, endToEnd...)
	defs = append(defs, perLayer...)
	for _, d := range defs {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("bad metric %q unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSON checks that the root BENCHMARK.json declares exactly
// the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		declared []metric
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, d := range c.defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json declares %v, program reports %v", got, want)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chanrecv":                             "sim.handoff",
		"runtime.findRunnable":                         "sim.handoff",
		"numasim/internal/numa.(*Manager).Access":      "numa",
		"numasim/internal/sim.(*Thread).park":          "sim",
		"numasim/internal/metrics.Run":                 "harness",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime.maps",
		"runtime.mapaccess2_fast64":                    "runtime.maps",
		"runtime.mallocgc":                             "runtime.gc",
		"runtime.scanobject":                           "runtime.gc",
		"runtime.futex":                                "",
		"fmt.Sprintf":                                  "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	const traces = `File: bench
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.notewakeup
             runtime.wakep
             runtime.chansend1
             numasim/internal/sim.(*Thread).park (inline)
-----------+-------------------------------------------------------
      20ms   fmt.Sprintf
             numasim/internal/policy.(*Threshold).Name
-----------+-------------------------------------------------------
      1.5s   runtime.memmove
             numasim/internal/mem.(*Frame).CopyFrom
-----------+-------------------------------------------------------
      30ms   runtime.futex
             runtime.notesleep
-----------+-------------------------------------------------------
`
	got, err := foldTraces(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim.handoff": 0.01, "policy": 0.02, "mem": 1.5, "other": 0.03}
	for l, v := range want {
		if d := got[l] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", l, got[l], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("folded %v, want %v", got, want)
	}
}

func TestCheckFold(t *testing.T) {
	for _, c := range []struct {
		name   string
		folded map[string]float64
		total  float64
		ok     bool
	}{
		{"attributed", map[string]float64{"sim": 0.9, "other": 0.1}, 1, true},
		{"too much other", map[string]float64{"sim": 0.89, "other": 0.11}, 1, false},
		{"no samples", map[string]float64{}, 0, false},
	} {
		total, err := checkFold(c.folded)
		if (err == nil) != c.ok || (c.ok && total != c.total) {
			t.Errorf("%s: checkFold = %v, %v; want total %v, ok=%v", c.name, total, err, c.total, c.ok)
		}
	}
}

func TestCheckRep(t *testing.T) {
	table3, _ := lookup("table3-paper")
	pressure, _ := lookup("pressure-reclaim")
	tournament, _ := lookup("tournament-small")
	exp := expected{Seed: 42, Digests: map[string]string{
		"table3-paper": "aaaa", "pressure-reclaim": "bbbb", "tournament-small": "cccc",
	}}
	for _, c := range []struct {
		name    string
		w       workload
		seed    int64
		digests []string
		ref     string
		ok      bool
	}{
		{"match", table3, 42, []string{"aaaa"}, "", true},
		{"unseeded at any seed", table3, 9, []string{"aaaa"}, "", true},
		{"tampered", table3, 42, []string{"aaab"}, "", false},
		{"tampered at other seed", table3, 9, []string{"aaab"}, "", false},
		{"seeded at other seed", pressure, 9, []string{"dddd"}, "", true},
		{"reps disagree", pressure, 9, []string{"dddd"}, "eeee", false},
		{"calls disagree", tournament, 42, []string{"cccc", "cccd"}, "", false},
		{"no output", table3, 42, nil, "", false},
	} {
		err := checkRep(c.w, c.seed, repResult{Digests: c.digests}, exp, c.ref)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := checkRep(table3, 42, repResult{Digests: []string{"aaaa"}, Err: "boom"}, exp, ""); err == nil {
		t.Error("a repetition that errored passed")
	}
}

// TestSummarize pins the quartiles to Python's
// statistics.quantiles(n=4), the method the results are read with.
func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize("s", c.in)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.in, s, c.q1, c.med, c.q3)
		}
	}
}
