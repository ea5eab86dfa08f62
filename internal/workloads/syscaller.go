package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// Syscaller is a probe workload for the Unix-master experiment (§4.6):
// each worker loops over private data — which automatic placement makes
// local — but periodically performs a system call (sigvec, fstat, ioctl in
// the paper) that reads its stack. When the kernel funnels system calls to
// the master processor, those reads come from processor 0, the private
// pages become writably shared with the master, and they end up in global
// memory.
type Syscaller struct {
	Iters  int // private-work iterations per worker
	Period int // one syscall every Period iterations

	sums []uint64
}

// NewSyscaller creates a Syscaller; zeros select defaults.
func NewSyscaller(iters, period int) *Syscaller {
	if iters <= 0 {
		iters = 3000
	}
	if period <= 0 {
		period = 50
	}
	return &Syscaller{Iters: iters, Period: period}
}

// Name implements Workload.
func (w *Syscaller) Name() string { return "Syscaller" }

// FetchHeavy implements Workload.
func (w *Syscaller) FetchHeavy() bool { return false }

// Start implements Workload.
func (w *Syscaller) Start(rt *cthreads.Runtime, nworkers int) func() error {
	w.sums = make([]uint64, nworkers)
	stacks := make([]uint32, nworkers)
	for i := range stacks {
		stacks[i] = rt.Alloc(fmt.Sprintf("stack%d", i), 4096)
	}
	rt.Start(nworkers, func(id int, c *vm.Context) {
		stack := stacks[id]
		var sum uint64
		for i := 0; i < w.Iters; i++ {
			// Private work against the stack page.
			c.Store32(stack, uint32(i))
			sum += uint64(c.Load32(stack))
			c.Compute(4)
			if (i+1)%w.Period == 0 {
				c.Syscall(80, stack) // e.g. sigvec reading the user stack
			}
		}
		w.sums[id] = sum
	})
	return func() error {
		per := uint64(w.Iters) * uint64(w.Iters-1) / 2
		for id, s := range w.sums {
			if s != per {
				return fmt.Errorf("Syscaller: worker %d sum %d, want %d", id, s, per)
			}
		}
		return nil
	}
}
