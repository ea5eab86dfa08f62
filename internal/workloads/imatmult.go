package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// IMatMult computes the product of a pair of N×N integer matrices (the
// paper used 200×200). "Workload allocation parcels out elements of the
// output matrix, which is found to be shared and is placed in global
// memory. Once initialized, the input matrices are only read, and are thus
// replicated in local memory. This program emphasizes the value of
// replicating data that is writable, but that is never written" (§3.2).
type IMatMult struct {
	N int

	a, b, c uint32 // region bases
	task    *vm.Task
}

// NewIMatMult creates an IMatMult instance; zero selects the paper's size
// (200×200).
func NewIMatMult(n int) *IMatMult {
	if n <= 0 {
		n = 200
	}
	return &IMatMult{N: n}
}

// Name implements Workload.
func (w *IMatMult) Name() string { return "IMatMult" }

// FetchHeavy implements Workload. IMatMult "does almost all fetches and no
// stores" (§3.2 footnote 3).
func (w *IMatMult) FetchHeavy() bool { return true }

func aInit(i, j int) uint32 { return uint32((i+j)%17 + 1) }
func bInit(i, j int) uint32 { return uint32((3*i+2*j)%13 + 1) }

// Start implements Workload.
func (w *IMatMult) Start(rt *cthreads.Runtime, nworkers int) func() error {
	n := w.N
	sz := uint32(n * n * 4)
	w.task = rt.Task()
	w.a = rt.Alloc("A", sz)
	w.b = rt.Alloc("B", sz)
	w.c = rt.Alloc("C", sz)
	// Per-worker stack pages for the partial-product temporary the
	// compiler keeps in the stack frame.
	stacks := make([]uint32, nworkers)
	for i := range stacks {
		stacks[i] = rt.Alloc(fmt.Sprintf("stack%d", i), 4096)
	}
	pile := rt.NewWorkPile(uint32(n * n))

	rt.StartMain(func(mc *vm.Context) {
		// Initialization on the main processor: the input matrices become
		// local-writable there, then replicate to the readers.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				mc.Store32(w.a+uint32((i*n+j)*4), aInit(i, j))
				mc.Store32(w.b+uint32((i*n+j)*4), bInit(i, j))
			}
		}
		workers := rt.ForkWorkers(mc, nworkers, func(id int, c *vm.Context) {
			stack := stacks[id]
			for {
				e, ok := pile.Next(c)
				if !ok {
					return
				}
				i, j := int(e)/n, int(e)%n
				var sum uint32
				for k := 0; k < n; k++ {
					av := c.Load32(w.a + uint32((i*n+k)*4))
					bv := c.Load32(w.b + uint32((k*n+j)*4))
					sum += av * bv
					c.Mul(1)
					c.Compute(1)
					// The 1989 compiler keeps the running sum in the
					// stack frame, not a register.
					c.Store32(stack, sum)
				}
				c.Store32(w.c+uint32((i*n+j)*4), sum)
			}
		})
		for _, wk := range workers {
			wk.Join(mc)
		}
	})
	return w.verify
}

func (w *IMatMult) verify() error {
	n := w.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want uint32
			for k := 0; k < n; k++ {
				want += aInit(i, k) * bInit(k, j)
			}
			if got := readWord(w.task, w.c+uint32((i*n+j)*4)); got != want {
				return fmt.Errorf("IMatMult: C[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
	return nil
}
