package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/numa"
	"numasim/internal/vm"
)

// HomeData is the probe workload for the §4.4 remote-reference experiment:
// "data used frequently by one processor and infrequently by others". One
// producer hammers a shared buffer; the other workers sample it rarely.
// Under automatic placement the samplers' reads keep degrading the
// producer's ownership (sync, replicate, re-own) until the pages pin in
// global memory and every producer access pays the global price. With the
// remote pragma the buffer is placed once in the producer's local memory
// and the samplers pay the remote price instead.
type HomeData struct {
	Iters          int // producer update rounds
	ConsumerPeriod int // one consumer sample every this many rounds
	UseRemote      bool

	task *vm.Task
	base uint32
}

// NewHomeData creates the probe; zeros select defaults.
func NewHomeData(iters, period int, useRemote bool) *HomeData {
	if iters <= 0 {
		iters = 1500
	}
	if period <= 0 {
		period = 25
	}
	return &HomeData{Iters: iters, ConsumerPeriod: period, UseRemote: useRemote}
}

// Name implements Workload.
func (w *HomeData) Name() string {
	if w.UseRemote {
		return "HomeData-remote"
	}
	return "HomeData"
}

// FetchHeavy implements Workload.
func (w *HomeData) FetchHeavy() bool { return false }

// Start implements Workload.
func (w *HomeData) Start(rt *cthreads.Runtime, nworkers int) func() error {
	w.task = rt.Task()
	const words = 64
	w.base = rt.Alloc("homedata", words*4)
	barrier := cthreads.NewBarrier(nworkers)

	rt.Start(nworkers, func(id int, c *vm.Context) {
		if id == 0 && w.UseRemote {
			// The producer knows this buffer is its own: pragma it remote
			// with its processor as home (§4.4).
			w.task.SetHome(w.base, c.Proc())
		}
		barrier.Wait(c)
		if id == 0 {
			// Producer: frequent read-modify-write rounds.
			for i := 0; i < w.Iters; i++ {
				for wd := uint32(0); wd < words; wd += 4 {
					v := c.Load32(w.base + wd*4)
					c.Store32(w.base+wd*4, v+1)
				}
				c.Compute(20)
			}
		} else {
			// Consumers: occasional samples of a few words.
			samples := w.Iters / w.ConsumerPeriod
			for s := 0; s < samples; s++ {
				c.Compute(20 * w.ConsumerPeriod) // off doing other work
				sum := uint32(0)
				for wd := uint32(0); wd < 4; wd++ {
					sum += c.Load32(w.base + wd*16)
				}
				_ = sum
			}
		}
	})
	return func() error {
		// Every touched word was incremented exactly Iters times.
		for wd := uint32(0); wd < words; wd += 4 {
			if got := readWord(w.task, w.base+wd*4); got != uint32(w.Iters) {
				return fmt.Errorf("%s: word %d = %d, want %d", w.Name(), wd, got, w.Iters)
			}
		}
		// Under the pragma the page must have stayed at its home.
		pg := w.task.EntryAt(w.base).Object().Page(0)
		if w.UseRemote && pg.State() != numa.Remote {
			return fmt.Errorf("%s: page state %v, want remote", w.Name(), pg.State())
		}
		return nil
	}
}
