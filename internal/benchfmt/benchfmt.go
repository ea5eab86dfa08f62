// Package benchfmt is the repo's benchmark interchange format: a parser
// for `go test -bench -benchmem` text output and the JSON schema the
// perf trajectory is tracked in (BENCH_<date>.json files, compared by
// cmd/benchdiff and gated in CI). Custom benchmark metrics reported via
// b.ReportMetric — the derived model parameters alpha, beta, gamma, the
// trace-overhead event rate and so on — ride along in a per-benchmark
// metrics map.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// so results compare across machines with different CPU counts.
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when the run used
	// -benchmem (or the benchmark called b.ReportAllocs).
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom units from b.ReportMetric (alpha, beta,
	// gamma, events/op, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is one tracked benchmark run.
type File struct {
	Date       string   `json:"date,omitempty"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// normName strips the trailing -N GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkTable3/FFT-8" -> "BenchmarkTable3/FFT").
func normName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Parse reads `go test -bench` text output and returns the structured
// run. Non-benchmark lines (PASS, ok, test log output) are ignored; the
// goos/goarch/cpu header lines are captured when present. Repeated
// benchmark names (from -count>1, or rounds of an A/B run appended to one
// file) fold into one result by fold.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	var runs [][]Result
	idx := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			f.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: normName(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q on line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BytesPerOp = val
			case "allocs/op":
				res.AllocsPerOp = val
			case "MB/s":
				// throughput is derived from ns/op; skip
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = val
			}
		}
		j, ok := idx[res.Name]
		if !ok {
			j = len(runs)
			idx[res.Name] = j
			runs = append(runs, nil)
		}
		runs[j] = append(runs[j], res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark lines in input")
	}
	for _, rs := range runs {
		f.Benchmarks = append(f.Benchmarks, fold(rs))
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		return f.Benchmarks[i].Name < f.Benchmarks[j].Name
	})
	return f, nil
}

// fold merges the measurements of one benchmark into its last one, with
// the median ns/op, so one slow round does not decide a comparison, and
// the largest allocs/op and B/op, so an allocation in any round shows.
func fold(rs []Result) Result {
	out := rs[len(rs)-1]
	ns := make([]float64, len(rs))
	for i, r := range rs {
		ns[i] = r.NsPerOp
		out.AllocsPerOp = max(out.AllocsPerOp, r.AllocsPerOp)
		out.BytesPerOp = max(out.BytesPerOp, r.BytesPerOp)
	}
	sort.Float64s(ns)
	out.NsPerOp = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
	return out
}

// Write marshals the run as indented JSON with a trailing newline (the
// committed BENCH_*.json form).
func (f *File) Write(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Read unmarshals a BENCH_*.json file.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: file holds no benchmarks")
	}
	return &f, nil
}

// ByName indexes the file's benchmarks.
func (f *File) ByName() map[string]Result {
	m := make(map[string]Result, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		m[b.Name] = b
	}
	return m
}
