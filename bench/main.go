// Command bench is the repository's end-to-end benchmark. It times the
// experiments people launch with cmd/tables (Table 3 at paper size, a
// memory-pressure sweep, the availability sweep, the policy tournament)
// through the harness's public experiment functions, checks their output
// against recorded digests, and prints one JSON result line.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload table3-paper --seed 42 --seconds 20 --trace 0
//
// Each repetition runs in a fresh child process. --trace 0 prints the
// end-to-end metrics (medians over the repetitions); --trace 1 makes one
// untraced and one traced repetition and prints the per-layer metrics: a
// CPU profile folded by layer, simtrace event counts, and probes of single
// layers. See bench/README.md for the metric definitions.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics --trace 0 reports, each the median over the
// run's repetitions.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics --trace 1 reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{selfMetric(l), "s"})
	}
	for _, n := range []string{
		"sim.dispatches", "vm.faults", "pmap.enters", "numa.actions", "numa.moves",
		"numa.pins", "numa.evictions", "numa.retries", "numa.evacuations", "ace.refs",
		"topology.link_waits", "runtime.gc_cycles",
	} {
		defs = append(defs, metricDef{n, "count"})
	}
	defs = append(defs,
		metricDef{"sim.ns_per_dispatch", "ns"},
		metricDef{"ref.ns_per_ref", "ns"},
		metricDef{"fault.ns_per_fault", "ns"},
		metricDef{"ace.local_frac", "fraction"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"profile.total_s", "s"},
		metricDef{"other.share", "fraction"},
		metricDef{"trace_overhead", "fraction"},
	)
	for _, b := range microBenches {
		defs = append(defs, metricDef{b.metric, "ns"})
	}
	return append(defs,
		metricDef{"probe.charge_healthy_ns", "ns"},
		metricDef{"probe.charge_degraded_ns", "ns"},
	)
}()

// selfMetric names the self-time metric of a layer.
func selfMetric(layer string) string {
	switch layer {
	case "sim.handoff", "runtime.gc", "runtime.maps":
		return layer + "_s"
	}
	return layer + ".self_s"
}

// minReps is the fewest untraced repetitions a run makes, whatever
// --seconds says. It is two, not three, because three repetitions of the
// longest workloads already take 30–45 s on a slow shared host, and the
// benchmark's run count must fit its total time cap.
const minReps = 2

// maxOtherShare is the largest fraction of profile samples that may name
// no layer. Above it the attribution is incomplete (for example, a Go
// release renamed runtime functions the layer table lists), and the run
// fails.
const maxOtherShare = 0.10

// runDeadline bounds a whole run; the child processes are killed when it
// passes.
const runDeadline = 170 * time.Second

//go:embed expected.json
var expectedJSON []byte

// expected holds the SHA-256 of each workload's CSV output. Workloads that
// ignore the seed must match at every seed; the seeded workload is checked
// against it only at Seed.
type expected struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "workload seed (pressure-reclaim's chaos seed)")
	seconds := fs.Int("seconds", 20, "measuring time; at least 2 repetitions run regardless")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced repetition")
	outdir := fs.String("outdir", filepath.Join(".bench_build", "results"), "directory for the report, spans and profiles")
	report := fs.String("o", "", "JSON report file (default: in -outdir)")
	testbin := fs.String("testbin", "", "test binary of the root package, for the --trace 1 probes")
	update := fs.Bool("update", false, "rerun every workload at the recorded seed and rewrite bench/expected.json")
	child := fs.Bool("child", false, "run one repetition in this process and print its result (used by the parent)")
	profile := fs.String("profile", "", "with -child: write a CPU profile of the experiment call here and count trace events")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintln(stderr, "bench: expected.json:", err)
		return 2
	}
	if *update {
		if err := updateExpected(filepath.Join("bench", "expected.json"), exp.Seed); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookup(*wname)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *wname, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *child {
		data, err := json.Marshal(runRep(w, *seed, false, *profile))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *trace == 1 && *testbin == "" {
		fmt.Fprintln(stderr, "bench: --trace 1 needs -testbin (bench/run.sh builds it)")
		return 2
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b := &bencher{
		w: w, seed: *seed, exp: exp, self: self, outdir: *outdir, stderr: stderr,
		samples: map[string][]float64{},
	}
	// A signal or the deadline cancels ctx, which kills the running child
	// process and waits for it, so none outlives the benchmark.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	root := b.spans.begin("run", 0)
	defs := endToEnd
	if *trace == 0 {
		b.measure(ctx, root, time.Duration(*seconds)*time.Second)
	} else {
		defs = perLayer
		b.traced(ctx, root, *testbin)
	}
	b.spans.end(root)

	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if *report == "" {
		*report = filepath.Join(*outdir, "report-"+tag+".json")
	}
	res := b.result(defs)
	if err := b.writeFiles(*report, filepath.Join(*outdir, "spans-"+tag+".json"), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printMetrics(stdout, w.name, res.summaries, defs)
	line, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// bencher is one benchmark run of one workload.
type bencher struct {
	w      workload
	seed   int64
	exp    expected
	self   string
	outdir string
	stderr io.Writer
	spans  spanLog

	attempted, failed int
	// ref is the first good repetition's output digest; every later
	// repetition must match it.
	ref        string
	samples    map[string][]float64
	gomaxprocs int
}

// rep runs one repetition in a child process and checks its output. It
// returns the result and whether the repetition passed.
func (b *bencher) rep(ctx context.Context, parent int, profile string) (repResult, bool) {
	b.attempted++
	id := b.spans.begin("rep", parent)
	args := []string{"-child", "-workload", b.w.name, "-seed", fmt.Sprint(b.seed)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	// The child inherits the environment, so it runs at the GOMAXPROCS a
	// tables user gets.
	cmd := exec.CommandContext(ctx, b.self, args...)
	cmd.Stderr = b.stderr
	out, err := cmd.Output()
	b.spans.end(id)
	var r repResult
	if err == nil {
		err = json.Unmarshal(out, &r)
	}
	b.spans.adopt(r.Spans, id)
	if err == nil {
		err = checkRep(b.w, b.seed, r, b.exp, b.ref)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "bench: %s repetition %d failed: %v\n", b.w.name, b.attempted, err)
		return r, false
	}
	if b.ref == "" {
		b.ref = r.Digests[0]
	}
	b.gomaxprocs = r.GOMAXPROCS
	return r, true
}

// measure makes the untraced repetitions: at least minReps, then more
// while the next one (assumed as long as the last) fits in budget.
func (b *bencher) measure(ctx context.Context, root int, budget time.Duration) {
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		r, ok := b.rep(ctx, root, "")
		last := time.Since(t0)
		if ok {
			for k, v := range endToEndValues(r) {
				b.add(k, v)
			}
		}
		if ctx.Err() != nil || (n+1 >= minReps && time.Since(start)+last > budget) {
			return
		}
	}
}

// traced makes one untraced and one traced repetition, folds the traced
// one's CPU profile by layer, and runs the layer probes.
func (b *bencher) traced(ctx context.Context, root int, testbin string) {
	plain, ok := b.rep(ctx, root, "")
	if !ok {
		return
	}
	profile := filepath.Join(b.outdir, fmt.Sprintf("cpu-%s-seed%d.pprof", b.w.name, b.seed))
	tr, ok := b.rep(ctx, root, profile)
	if !ok {
		return
	}
	m := map[string]float64{}
	for k, v := range tr.Counts {
		m[k] = v
	}
	var folded map[string]float64
	var total float64
	if !b.step(root, "fold", func() (err error) {
		if folded, err = foldProfile(ctx, profile); err != nil {
			return err
		}
		total, err = checkFold(folded)
		return err
	}) {
		return
	}
	for _, l := range layers {
		m[selfMetric(l)] = folded[l]
	}
	m["profile.total_s"] = total
	m["other.share"] = ratio(folded["other"], total, 1)
	m["sim.ns_per_dispatch"] = ratio(folded["sim"]+folded["sim.handoff"], m["sim.dispatches"], 1e9)
	m["ref.ns_per_ref"] = ratio(folded["vm"]+folded["mmu"]+folded["ace"]+folded["mem"], m["ace.refs"], 1e9)
	m["fault.ns_per_fault"] = ratio(folded["numa"]+folded["pmap"], m["vm.faults"], 1e9)
	m["trace_overhead"] = tr.WallS/plain.WallS - 1

	if !b.step(root, "probe:microbench", func() error {
		micro, err := runMicroProbes(ctx, testbin)
		for k, v := range micro {
			m[k] = v
		}
		return err
	}) {
		return
	}
	for _, p := range []struct {
		name     string
		degraded bool
	}{{"probe.charge_healthy_ns", false}, {"probe.charge_degraded_ns", true}} {
		if !b.step(root, "probe:"+p.name, func() (err error) {
			m[p.name], err = chargeProbe(p.degraded)
			return err
		}) {
			return
		}
	}
	for _, d := range perLayer {
		b.add(d.name, m[d.name])
	}
}

// step runs one non-repetition step of the traced run inside a span,
// counting it as attempted and, on error, as failed.
func (b *bencher) step(parent int, name string, fn func() error) bool {
	b.attempted++
	id := b.spans.begin(name, parent)
	err := fn()
	b.spans.end(id)
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "bench: %s %s failed: %v\n", b.w.name, name, err)
		return false
	}
	return true
}

func (b *bencher) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// ratio is num/den scaled, or 0 when the denominator was not measured.
func ratio(num, den, scale float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den * scale
}

// foldProfile reads a CPU profile through `go tool pprof -traces` and
// returns the seconds of samples charged to each layer.
func foldProfile(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile)
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go tool pprof: %w\n%s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}

// checkFold returns a folded profile's total seconds, or an error when
// more than maxOtherShare of them name no layer.
func checkFold(folded map[string]float64) (float64, error) {
	var total float64
	for _, l := range layers {
		total += folded[l]
	}
	if total == 0 {
		return 0, errors.New("profile holds no samples")
	}
	if share := folded["other"] / total; share > maxOtherShare {
		return total, fmt.Errorf("%.1f%% of profile samples name no layer (at most %.0f%% allowed)",
			100*share, 100*maxOtherShare)
	}
	return total, nil
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type benchResult struct {
	line      resultLine
	summaries map[string]summary
}

// result summarizes the samples. A metric with no sample (every
// repetition failed) is left out, and the run is then not correct.
func (b *bencher) result(defs []metricDef) benchResult {
	res := benchResult{
		line: resultLine{
			Correct:   b.failed == 0,
			Attempted: b.attempted,
			Failed:    b.failed,
			Metrics:   map[string]metricResult{},
		},
		summaries: map[string]summary{},
	}
	for _, d := range defs {
		s := b.samples[d.name]
		if len(s) == 0 {
			res.line.Correct = false
			continue
		}
		sum := summarize(d.unit, s)
		res.summaries[d.name] = sum
		res.line.Metrics[d.name] = metricResult{Value: sum.Median, Unit: d.unit}
	}
	return res
}

// writeFiles writes the JSON report (every metric's raw samples, median
// and quartiles) and the span log.
func (b *bencher) writeFiles(reportPath, spansPath string, res benchResult) error {
	rep := struct {
		Workload   string             `json:"workload"`
		Seed       int64              `json:"seed"`
		GoVersion  string             `json:"go_version"`
		NumCPU     int                `json:"num_cpu"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Correct    bool               `json:"correct"`
		Attempted  int                `json:"attempted"`
		Failed     int                `json:"failed"`
		Metrics    map[string]summary `json:"metrics"`
	}{b.w.name, b.seed, runtime.Version(), runtime.NumCPU(), b.gomaxprocs,
		res.line.Correct, b.attempted, b.failed, res.summaries}
	if err := writeJSON(reportPath, rep); err != nil {
		return err
	}
	return writeJSON(spansPath, b.spans.spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints one line per metric: median, quartiles, samples.
func printMetrics(w io.Writer, workload string, sums map[string]summary, defs []metricDef) {
	for _, d := range defs {
		s, ok := sums[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-22s %-26s %14.6g %-8s q1=%.6g q3=%.6g n=%d\n",
			workload, d.name, s.Median, d.unit, s.Q1, s.Q3, s.N)
	}
}

// repDigest returns a repetition's output digest: every experiment call
// of the repetition must have produced the same output.
func repDigest(r repResult) (string, error) {
	if r.Err != "" {
		return "", errors.New(r.Err)
	}
	if len(r.Digests) == 0 {
		return "", errors.New("no output")
	}
	got := r.Digests[0]
	for i, d := range r.Digests {
		if d != got {
			return "", fmt.Errorf("experiment call %d output %.12s differs from call 0's %.12s", i, d, got)
		}
	}
	return got, nil
}

// checkRep reports why a repetition's output is wrong, or nil. Every
// repetition of a run must produce the same output (ref is the first good
// one's digest, or ""), and the output must match the recorded digest,
// except for the seeded workload at a seed other than the recorded one.
func checkRep(w workload, seed int64, r repResult, exp expected, ref string) error {
	got, err := repDigest(r)
	if err != nil {
		return err
	}
	if ref != "" && got != ref {
		return fmt.Errorf("output %.12s differs from the first repetition's %.12s", got, ref)
	}
	if w.seeded && seed != exp.Seed {
		return nil
	}
	want, ok := exp.Digests[w.name]
	if !ok {
		return fmt.Errorf("no expected digest for %s", w.name)
	}
	if got != want {
		return fmt.Errorf("output %.12s, expected %.12s", got, want)
	}
	return nil
}

// updateExpected runs every workload once at seed and rewrites the
// digest file.
func updateExpected(path string, seed int64) error {
	exp := expected{Seed: seed, Digests: map[string]string{}}
	for _, w := range workloads {
		d, err := repDigest(runRep(w, seed, false, ""))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		exp.Digests[w.name] = d
	}
	return writeJSON(path, exp)
}
