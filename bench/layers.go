package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// layers are the attribution buckets of a CPU profile, in report order:
// the repo's packages, the three parts of the Go runtime the simulator
// leans on, and everything else.
var layers = []string{
	"sim", "sim.handoff", "vm", "mmu", "ace", "mem", "pmap", "numa", "policy",
	"topology", "sched", "cthreads", "simtrace", "chaos", "workloads", "harness",
	"runtime.gc", "runtime.maps", "other",
}

// packageLayers maps the repo's package path prefixes to layers.
var packageLayers = []struct{ prefix, layer string }{
	{"numasim/internal/sim.", "sim"},
	{"numasim/internal/vm.", "vm"},
	{"numasim/internal/mmu.", "mmu"},
	{"numasim/internal/ace.", "ace"},
	{"numasim/internal/mem.", "mem"},
	{"numasim/internal/pmap.", "pmap"},
	{"numasim/internal/numa.", "numa"},
	{"numasim/internal/policy.", "policy"},
	{"numasim/internal/topology.", "topology"},
	{"numasim/internal/sched.", "sched"},
	{"numasim/internal/cthreads.", "cthreads"},
	{"numasim/internal/simtrace.", "simtrace"},
	{"numasim/internal/chaos.", "chaos"},
	{"numasim/internal/workloads.", "workloads"},
	{"numasim/internal/harness.", "harness"},
	{"numasim/internal/metrics.", "harness"},
}

// Go runtime functions by the job they do for the simulator. At
// Parallelism 1 the scheduler and channel functions have one real
// source, the engine's unbuffered-channel handoff, so they are charged to
// sim.handoff. Low-level helpers that every part of the runtime calls
// (futex, lock2, nanotime, ...) are in no list: a sample in one of them
// goes to the nearest caller that is.
var (
	gcFuncs = []string{
		"runtime.gc", "gcWriteBarrier", "runtime.mallocgc", "runtime.memclr",
		"runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
		"runtime.typedmemclr", "runtime.scan", "runtime.markroot", "runtime.greyobject",
		"runtime.findObject", "runtime.typePointers", "runtime.heapBits", "runtime.spanOf",
		"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mspan)", "runtime.(*gcWork)", "runtime.(*gcBits", "runtime.(*sweepLocked)",
		"runtime.(*wbBuf)", "runtime.(*spanSet)", "runtime.(*pageAlloc)", "runtime.(*scavenger",
		"runtime.(*gcControllerState)", "runtime.(*gcCPULimiterState)", "runtime.markBits",
		"runtime.sysAlloc", "runtime.sysUnused", "runtime.persistentalloc",
		"runtime.stopTheWorld", "runtime.startTheWorld", "runtime.forEachP",
	}
	mapFuncs   = []string{"runtime.map", "internal/runtime/maps."}
	schedFuncs = []string{
		"runtime.chan", "runtime.selectgo", "runtime.send", "runtime.recv",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
		"runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.handoffp", "runtime.execute",
		"runtime.gogo", "gogo", "runtime.runq", "runtime.globrunq", "runtime.stealWork",
		"runtime.newproc", "runtime.goexit", "runtime.mstart", "runtime.sysmon",
		"runtime.Gosched", "runtime.gosched", "runtime.gopreempt", "runtime.newstack",
		"runtime.morestack", "runtime.copystack", "runtime.checkTimers", "runtime.(*timers)",
		"runtime.acquirep", "runtime.releasep", "runtime.pidle", "runtime.netpoll",
		"runtime.mPark", "runtime.(*waitq)", "runtime.acquireSudog", "runtime.releaseSudog",
		"runtime.entersyscall", "runtime.exitsyscall",
	}
)

// frameLayer names the layer a single stack frame belongs to, or "" when
// the frame alone does not decide it (standard-library code and low-level
// runtime helpers are charged to their caller).
func frameLayer(fn string) string {
	for _, p := range packageLayers {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	switch {
	case hasAnyPrefix(fn, mapFuncs):
		return "runtime.maps"
	case hasAnyPrefix(fn, gcFuncs):
		return "runtime.gc"
	case hasAnyPrefix(fn, schedFuncs):
		return "sim.handoff"
	}
	return ""
}

// stackLayer charges one sampled stack, leaf first, to the first frame
// that names a layer: a sample in the repo's code goes to its package, a
// runtime or standard-library sample to the nearest frame that decides.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// foldTraces reads `go tool pprof -traces` output and returns the seconds
// of CPU samples charged to each layer.
func foldTraces(r io.Reader) (map[string]float64, error) {
	byLayer := map[string]time.Duration{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byLayer[stackLayer(stack)] += value
		}
		stack = stack[:0]
	}
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			// The first line of a trace is "<value> <leaf function>".
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	if !inTraces {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	out := map[string]float64{}
	for l, d := range byLayer {
		out[l] = d.Seconds()
	}
	return out, nil
}
