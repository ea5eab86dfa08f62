package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"numasim/internal/ace"
	"numasim/internal/simtrace"
)

// repResult is what one child process reports about its repetition.
type repResult struct {
	// Digests holds the SHA-256 of each experiment call's CSV output.
	Digests    []string           `json:"digests"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	MaxRSSMB   float64            `json:"max_rss_mb"`
	SetupS     float64            `json:"setup_s,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Spans      []span             `json:"spans"`
	Err        string             `json:"error,omitempty"`
}

// sinkCounts are the per-layer counts a CountingSink supplies, by event
// kind.
var sinkCounts = []struct {
	name string
	kind simtrace.Kind
}{
	{"sim.dispatches", simtrace.KindDispatch},
	{"vm.faults", simtrace.KindFaultEnter},
	{"numa.actions", simtrace.KindAction},
	{"numa.evictions", simtrace.KindEvict},
	{"numa.retries", simtrace.KindRetry},
	{"numa.pins", simtrace.KindPin},
	{"numa.evacuations", simtrace.KindEvacuate},
	{"pmap.enters", simtrace.KindMapEnter},
	{"topology.link_waits", simtrace.KindLinkWait},
}

// setupMinTime is how long the set-up measurement repeats its pass.
const setupMinTime = 200 * time.Millisecond

// runRep performs one repetition in this process: the timed experiment
// call, then (untraced) the set-up measurement, which fails when the
// workload's configs do not list one machine per simulation the call made.
// A non-empty profile path makes it the traced repetition: a CPU profile
// of the call is written there and a CountingSink rides along on every
// machine. small selects the reduced sizes the tests use.
func runRep(w workload, seed int64, small bool, profile string) (res repResult) {
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	var log spanLog
	defer func() { res.Spans = log.spans }()
	fail := func(err error) repResult {
		res.Err = err.Error()
		return res
	}
	o := w.options(seed, small)
	var sink *simtrace.CountingSink
	var prof *os.File
	var before, after runtime.MemStats
	if profile != "" {
		sink = &simtrace.CountingSink{}
		o.TraceSink = sink
		var err error
		if prof, err = os.Create(profile); err != nil {
			return fail(err)
		}
		defer prof.Close()
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return fail(err)
		}
	}

	cpu0, _, err := rusage()
	if err != nil {
		return fail(err)
	}
	id := log.begin("experiment", 0)
	t0 := time.Now()
	out, err := w.run(o, small)
	res.WallS = time.Since(t0).Seconds()
	log.end(id)
	cpu1, rss, rerr := rusage()
	res.CPUS, res.MaxRSSMB = cpu1-cpu0, rss
	if profile != "" {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		if cerr := prof.Close(); cerr != nil {
			return fail(cerr)
		}
	}
	if err != nil {
		return fail(err)
	}
	if rerr != nil {
		return fail(rerr)
	}
	for _, csv := range out.csv {
		res.Digests = append(res.Digests, digest(csv))
	}
	res.Counts = out.counts

	if profile != "" {
		res.Counts["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		res.Counts["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		// The tournament ignores the sink; its rows supply its counts.
		if sink.Total() > 0 {
			for _, c := range sinkCounts {
				res.Counts[c.name] = float64(sink.Count(c.kind))
			}
		}
		return res
	}
	cfgs := w.configs(o, small)
	if len(cfgs) != out.runs {
		return fail(fmt.Errorf("set-up lists %d machines, the experiment ran %d simulations", len(cfgs), out.runs))
	}
	// Collect the timed call's garbage first, so that a GC cycle it left
	// due does not land among the set-up passes in some repetitions only.
	runtime.GC()
	id = log.begin("setup", 0)
	res.SetupS, err = setupTime(cfgs)
	log.end(id)
	if err != nil {
		return fail(err)
	}
	return res
}

// endToEndValues are a repetition's end-to-end metrics.
func endToEndValues(r repResult) map[string]float64 {
	return map[string]float64{
		"wall_s": r.WallS, "cpu_s": r.CPUS, "setup_s": r.SetupS, "max_rss_mb": r.MaxRSSMB,
	}
}

// setupTime builds one machine per configuration, in order, and repeats
// the pass until setupMinTime has passed. It returns the median time of a
// pass.
func setupTime(cfgs []ace.Config) (float64, error) {
	var passes []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < setupMinTime {
		t0 := time.Now()
		for _, cfg := range cfgs {
			if _, err := ace.NewMachine(cfg); err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	return summarize("s", passes).Median, nil
}

// digest is the hex SHA-256 of one CSV rendering.
func digest(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

// rusage returns the process's user plus system time so far and its
// peak resident set in MiB (Linux reports ru_maxrss in KiB).
func rusage() (cpuS, maxRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
