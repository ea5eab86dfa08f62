// Package workloads implements the paper's application mix (§3.2): a fast
// Fourier transform (FFT), a graphics rendering program (PlyTrace), three
// prime finders (Primes1-3) and an integer matrix multiplier (IMatMult),
// as well as a program designed to spend all of its time referencing
// shared memory (Gfetch) and one designed not to reference shared memory
// at all (ParMult).
//
// Every application performs its real computation — the primes are real
// primes, the transform is a real FFT, the renderer fills a real z-buffer
// — through simulated virtual memory, and verifies its own results, so a
// placement bug that corrupts data fails the run rather than skewing a
// number.
//
// Default problem sizes are scaled down from the paper's (which total
// hours of 1989 CPU time); every workload takes its sizes as parameters so
// the harness and benchmarks can sweep them.
package workloads

import (
	"fmt"
	"strings"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// Workload is one measured application.
type Workload interface {
	// Name returns the application's name as the paper's tables spell it.
	Name() string
	// FetchHeavy reports whether the paper used the fetch-only G/L ratio
	// (2.3) for this application rather than the mixed ratio (~2): true
	// for Gfetch and IMatMult, which "do almost all fetches and no
	// stores" (§3.2 footnote 3).
	FetchHeavy() bool
	// Start spawns the application's nworkers (at least one) threads on
	// the runtime without running the engine, so several applications can
	// execute concurrently on one machine (the multiprogrammed
	// "application mix"). The returned finish verifies the results after
	// the engine has run.
	Start(rt *cthreads.Runtime, nworkers int) (finish func() error)
}

// entry is one nameable application: sized builds it at a problem size
// (0: the default), small at the reduced size -small selects (nil: the
// default size).
type entry struct {
	name  string
	sized func(size int) (Workload, error)
	small func() Workload
}

// paperApps is how many of the table's entries are the paper's mix.
const paperApps = 8

// table names every application New builds: the paper's eight in Table 3
// order, then the pre-tuning Primes2 of §4.2, the Unix-master probe and
// the two policy probes. The size is each application's primary knob:
// work units for ParMult, pages for Gfetch, Phased and Zipf, matrix side
// for IMatMult and FFT, the search limit for the prime finders, the
// triangle count for PlyTrace and iterations for Syscaller.
var table = []entry{
	{"ParMult", func(n int) (Workload, error) { return NewParMult(n, 0), nil }, func() Workload { return NewParMult(60, 80) }},
	{"Gfetch", func(n int) (Workload, error) { return NewGfetch(n, 0), nil }, func() Workload { return NewGfetch(12, 4) }},
	{"IMatMult", func(n int) (Workload, error) { return NewIMatMult(n), nil }, func() Workload { return NewIMatMult(24) }},
	{"Primes1", func(n int) (Workload, error) { return NewPrimes1(uint32(n)), nil }, func() Workload { return NewPrimes1(4000) }},
	{"Primes2", func(n int) (Workload, error) { return NewPrimes2(uint32(n), true), nil }, func() Workload { return NewPrimes2(8000, true) }},
	{"Primes3", func(n int) (Workload, error) { return NewPrimes3(uint32(n)), nil }, func() Workload { return NewPrimes3(60000) }},
	{"FFT", func(n int) (Workload, error) {
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("workloads: FFT size %d is not a power of two", n)
		}
		return NewFFT(n), nil
	}, func() Workload { return NewFFT(32) }},
	{"PlyTrace", func(n int) (Workload, error) { return NewPlyTrace(n, 0, 0), nil }, func() Workload { return NewPlyTrace(160, 128, 128) }},
	{"Primes2-untuned", func(n int) (Workload, error) { return NewPrimes2(uint32(n), false), nil }, func() Workload { return NewPrimes2(8000, false) }},
	{"Syscaller", func(n int) (Workload, error) { return NewSyscaller(n, 0), nil }, func() Workload { return NewSyscaller(1200, 40) }},
	{"Phased", func(n int) (Workload, error) { return NewPhased(n, 0, 0), nil }, nil},
	{"Zipf", func(n int) (Workload, error) { return NewZipf(n, 0, 0), nil }, nil},
}

// New builds the named application, matching the name in any case
// ("fft", "FFT"). With small set it builds the entry's reduced size when
// it has one, and otherwise the given size (0: the default).
func New(name string, size int, small bool) (Workload, error) {
	if size < 0 {
		return nil, fmt.Errorf("workloads: negative size %d", size)
	}
	for _, e := range table {
		if !strings.EqualFold(e.name, name) {
			continue
		}
		if small && e.small != nil {
			return e.small(), nil
		}
		return e.sized(size)
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (known: %s)", name, strings.Join(names(table), ", "))
}

// Names lists the paper's applications in Table 3 order.
func Names() []string { return names(table[:paperApps]) }

func names(es []entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

// All returns one instance of each of the paper's applications in Table 3
// order, at default (scaled) problem sizes.
func All() []Workload {
	ws := make([]Workload, paperApps)
	for i, e := range table[:paperApps] {
		ws[i], _ = e.sized(0) // the default size is always valid
	}
	return ws
}

// Run starts w on the runtime with n worker threads (n <= 0: one per
// processor), runs the simulation to completion and verifies the results.
func Run(w Workload, rt *cthreads.Runtime, n int) error {
	if n <= 0 {
		n = rt.Kernel().Machine().NProc()
	}
	finish := w.Start(rt, n)
	if err := rt.Kernel().Machine().Engine().Run(); err != nil {
		return err
	}
	return finish()
}

// readWord reads a word from the task's memory after the simulation has
// finished, without charging simulated time (for verification).
func readWord(task *vm.Task, va uint32) uint32 {
	obj, idx, off := locate(task, va)
	return obj.Peek32(idx, off)
}

func readWord64(task *vm.Task, va uint32) uint64 {
	obj, idx, off := locate(task, va)
	return obj.Peek64(idx, off)
}

func locate(task *vm.Task, va uint32) (obj *vm.Object, pageIdx, off int) {
	e := task.EntryAt(va)
	if e == nil {
		panic(fmt.Sprintf("workloads: unmapped address %#x", va))
	}
	ps := task.Kernel().Machine().PageSize()
	return e.Object(), int((va - e.Start()) / uint32(ps)), int(va) & (ps - 1)
}
