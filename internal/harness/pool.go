package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool runs independent experiment units — whole simulations, never parts
// of one — on a bounded number of goroutines. Every simulation is a
// self-contained deterministic machine, so running several at once changes
// wall-clock time only; callers collect results into index-addressed slots
// so rendered tables are byte-identical to a sequential run.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most parallelism tasks at once.
// parallelism <= 0 selects runtime.NumCPU().
func NewPool(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	return &Pool{workers: parallelism}
}

// Run invokes fn(0..n-1), at most parallelism at a time, and waits for all of
// them. Each index runs exactly once. If any invocations fail, Run returns
// the error of the smallest failing index — the same error a sequential
// loop would have surfaced first — so error behaviour is deterministic too.
func (p *Pool) Run(n int, fn func(i int) error) error {
	for _, err := range p.RunAll(n, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunAll is Run, except it reports every index's outcome (nil on success)
// so sweeps can render partial results with per-run error summaries. A
// panic inside fn is recovered into that index's error — stack attached —
// and the remaining indices still run to completion, on the sequential
// path and on worker goroutines alike.
func (p *Pool) RunAll(n int, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("harness: task %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		return fn(i)
	}
	errs := make([]error, n)
	if p.workers == 1 || n == 1 {
		// Sequential fast path: no goroutines, no channel traffic.
		for i := 0; i < n; i++ {
			errs[i] = call(i)
		}
		return errs
	}
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{} // acquire before spawning to bound goroutine count
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	return errs
}
