package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

// Phased is the probe workload for comparing placement policies that can
// and cannot reconsider their decisions (§4.3: "It may in some
// applications be worthwhile periodically to reconsider the decision to
// pin a page in global memory"). Phase one writes every page from every
// worker, which drives a threshold policy to pin everything; after a long
// quiet gap, phase two partitions the pages so each is used by a single
// worker. A policy that can unpin (Reconsider, FreezeDefrost) brings the
// pages home for phase two; the paper's policy leaves them in global
// memory forever.
type Phased struct {
	Pages         int
	SharedRounds  int
	PrivateRounds int

	task *vm.Task
	base uint32
}

// NewPhased creates a Phased probe; zeros select defaults.
func NewPhased(pages, sharedRounds, privateRounds int) *Phased {
	if pages <= 0 {
		pages = 8
	}
	if sharedRounds <= 0 {
		sharedRounds = 6
	}
	if privateRounds <= 0 {
		privateRounds = 400
	}
	return &Phased{Pages: pages, SharedRounds: sharedRounds, PrivateRounds: privateRounds}
}

// Name implements Workload.
func (w *Phased) Name() string { return "Phased" }

// FetchHeavy implements Workload.
func (w *Phased) FetchHeavy() bool { return false }

// Start implements Workload.
func (w *Phased) Start(rt *cthreads.Runtime, nworkers int) func() error {
	ps := rt.Kernel().Machine().PageSize()
	w.task = rt.Task()
	w.base = rt.Alloc("phased", uint32(w.Pages*ps))
	barrier := cthreads.NewBarrier(nworkers)

	rt.Start(nworkers, func(id int, c *vm.Context) {
		// Phase 1: every worker writes every page in turn.
		for r := 0; r < w.SharedRounds; r++ {
			for p := 0; p < w.Pages; p++ {
				if (p+r)%nworkers == id {
					c.Store32(w.base+uint32(p*ps), uint32(r))
				}
			}
			barrier.Wait(c)
		}
		// Long quiet gap between program phases.
		c.Compute(2000) // 1 ms of unrelated work
		c.Thread().Idle(300 * sim.Millisecond)
		barrier.Wait(c)
		// Phase 2: strictly partitioned single-writer use.
		for r := 0; r < w.PrivateRounds; r++ {
			for p := id; p < w.Pages; p += nworkers {
				va := w.base + uint32(p*ps)
				v := c.Load32(va)
				c.Store32(va, v+1)
			}
		}
	})
	return func() error {
		for p := 0; p < w.Pages; p++ {
			got := readWord(w.task, w.base+uint32(p*ps))
			// Phase 1 leaves the last round index; phase 2 adds
			// PrivateRounds increments.
			want := uint32(w.SharedRounds-1) + uint32(w.PrivateRounds)
			if got != want {
				return fmt.Errorf("Phased: page %d = %d, want %d", p, got, want)
			}
		}
		return nil
	}
}
