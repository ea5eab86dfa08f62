package cthreads_test

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/cthreads"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

func newRuntime(nproc int, mode sched.Mode) *cthreads.Runtime {
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 256
	cfg.LocalFrames = 128
	cfg.Quantum = 100 * sim.Microsecond
	k := vm.NewKernel(ace.MustMachine(cfg), policy.NewDefault())
	return cthreads.NewShared(k, sched.New(k, mode))
}

// runMain forks fn as the coordinating thread and runs the simulation to
// completion.
func runMain(r *cthreads.Runtime, fn func(c *vm.Context)) error {
	r.StartMain(fn)
	return r.Kernel().Machine().Engine().Run()
}

func TestRunBindsOneWorkerPerProcessor(t *testing.T) {
	r := newRuntime(4, sched.Affinity)
	procs := make([]int, 4)
	err := r.Run(4, func(id int, c *vm.Context) {
		procs[id] = c.Proc()
		c.Compute(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range procs {
		if seen[p] {
			t.Errorf("processor %d assigned twice: %v", p, procs)
		}
		seen[p] = true
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	r := newRuntime(4, sched.Affinity)
	lock := r.NewSpinLock()
	counterVA := r.Alloc("counter", 4)
	const perWorker = 50
	err := r.Run(4, func(id int, c *vm.Context) {
		for i := 0; i < perWorker; i++ {
			lock.Lock(c)
			v := c.Load32(counterVA)
			c.Compute(3) // widen the critical section
			c.Store32(counterVA, v+1)
			lock.Unlock(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify via a fresh read on a final thread.
	// The counter value lives in the NUMA-managed page; read it through
	// the page's authoritative frame.
	pg := r.Task().EntryAt(counterVA).Object().Page(0)
	if got := pg.Authoritative().Load32(0); got != 4*perWorker {
		t.Errorf("counter = %d, want %d (lost updates => broken mutual exclusion)", got, 4*perWorker)
	}
}

func TestSpinLocksShareSyncPage(t *testing.T) {
	r := newRuntime(2, sched.Affinity)
	a := r.NewSpinLock()
	b := r.NewSpinLock()
	if cthreads.LockVA(a)/4096 != cthreads.LockVA(b)/4096 {
		t.Error("two fresh locks should share a sync page (loader-style layout)")
	}
	if cthreads.LockVA(a) == cthreads.LockVA(b) {
		t.Error("distinct locks share a word")
	}
}

func TestMutexAndCond(t *testing.T) {
	r := newRuntime(2, sched.Affinity)
	var mu cthreads.Mutex
	var cv cthreads.Cond
	ready := false
	var consumedAt sim.Time
	err := r.Run(2, func(id int, c *vm.Context) {
		if id == 0 { // producer
			c.Compute(100)
			mu.Lock(c)
			ready = true
			cv.Signal(c)
			mu.Unlock(c)
		} else { // consumer
			mu.Lock(c)
			for !ready {
				cv.Wait(c, &mu)
			}
			mu.Unlock(c)
			consumedAt = c.Thread().Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if consumedAt < 100*500*sim.Nanosecond {
		t.Errorf("consumer finished at %v, before producer's work", consumedAt)
	}
}

func TestUnlockUnheldMutexPanics(t *testing.T) {
	r := newRuntime(1, sched.Affinity)
	var mu cthreads.Mutex
	err := r.Run(1, func(id int, c *vm.Context) {
		mu.Unlock(c)
	})
	if err == nil {
		t.Fatal("want error from panic")
	}
}

func TestBarrier(t *testing.T) {
	r := newRuntime(3, sched.Affinity)
	b := cthreads.NewBarrier(3)
	var after [3]sim.Time
	err := r.Run(3, func(id int, c *vm.Context) {
		c.Compute(100 * (id + 1)) // unequal work before the barrier
		b.Wait(c)
		after[id] = c.Thread().Clock()
		// Second use of the same barrier (generation logic).
		c.Compute(10)
		b.Wait(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	slowest := 100 * 3 * 500 * sim.Nanosecond
	for id, tm := range after {
		if tm < slowest {
			t.Errorf("worker %d passed barrier at %v, before slowest arrival %v", id, tm, slowest)
		}
	}
}

func TestBarrierSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	cthreads.NewBarrier(0)
}

func TestWorkPile(t *testing.T) {
	r := newRuntime(4, sched.Affinity)
	// Each unit carries enough compute (~300µs) that the pile outlives the
	// workers' initial page-move faults and everyone participates.
	const units = 200
	pile := r.NewWorkPile(units)
	got := make([][]uint32, 4)
	err := r.Run(4, func(id int, c *vm.Context) {
		for {
			idx, ok := pile.Next(c)
			if !ok {
				return
			}
			got[id] = append(got[id], idx)
			c.Compute(600)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	total := 0
	for id, list := range got {
		total += len(list)
		if len(list) == 0 {
			t.Errorf("worker %d got no work", id)
		}
		for _, idx := range list {
			if seen[idx] {
				t.Errorf("work unit %d handed out twice", idx)
			}
			seen[idx] = true
		}
	}
	if total != units {
		t.Errorf("total units = %d, want %d", total, units)
	}
}

func TestWorkPileBatch(t *testing.T) {
	r := newRuntime(2, sched.Affinity)
	pile := r.NewWorkPile(10)
	var unitsSeen int
	err := r.Run(2, func(id int, c *vm.Context) {
		for {
			lo, hi, ok := pile.NextBatch(c, 4)
			if !ok {
				return
			}
			unitsSeen += int(hi - lo)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if unitsSeen != 10 {
		t.Errorf("units = %d, want 10", unitsSeen)
	}
}

func TestMainForkJoin(t *testing.T) {
	r := newRuntime(3, sched.Affinity)
	data := r.Alloc("data", 3*4)
	err := runMain(r, func(c *vm.Context) {
		workers := r.ForkWorkers(c, 3, func(id int, wc *vm.Context) {
			wc.Store32(data+uint32(id)*4, uint32(id)+1)
		})
		for _, w := range workers {
			w.Join(c)
		}
		sum := uint32(0)
		for i := uint32(0); i < 3; i++ {
			sum += c.Load32(data + i*4)
		}
		if sum != 6 {
			t.Errorf("sum = %d, want 6", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoAffinityHops(t *testing.T) {
	r := newRuntime(4, sched.NoAffinity)
	procsSeen := map[int]bool{}
	err := r.Run(1, func(id int, c *vm.Context) {
		for i := 0; i < 50; i++ {
			procsSeen[c.Proc()] = true
			c.Compute(400) // 200µs: beyond the quantum
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(procsSeen) < 2 {
		t.Errorf("no-affinity thread stayed on %v", procsSeen)
	}
	if sched.NoAffinity.String() != "no-affinity" {
		t.Error("mode string wrong")
	}
}

func TestAffinityBinding(t *testing.T) {
	// E11: under the affinity scheduler a thread never changes processor.
	r := newRuntime(4, sched.Affinity)
	procsSeen := map[int]bool{}
	err := r.Run(1, func(id int, c *vm.Context) {
		for i := 0; i < 50; i++ {
			procsSeen[c.Proc()] = true
			c.Compute(400)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(procsSeen) != 1 {
		t.Errorf("affinity thread moved across %v", procsSeen)
	}
	if sched.Affinity.String() != "affinity" {
		t.Error("mode string wrong")
	}
}

func TestSchedulerSkipsBusyProcessors(t *testing.T) {
	r := newRuntime(4, sched.Affinity)
	var procs []int
	err := runMain(r, func(c *vm.Context) {
		// Main occupies one processor; three workers must land on the
		// three others.
		ws := r.ForkWorkers(c, 3, func(id int, wc *vm.Context) {
			procs = append(procs, wc.Proc())
			wc.Compute(10)
		})
		for _, w := range ws {
			w.Join(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range procs {
		if p == 0 {
			t.Errorf("worker landed on main's busy processor: %v", procs)
		}
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Errorf("workers shared processors: %v", procs)
	}
}

func TestAllBusyFallsBackToSharing(t *testing.T) {
	r := newRuntime(2, sched.Affinity)
	counts := map[int]int{}
	err := r.Run(4, func(id int, c *vm.Context) {
		counts[c.Proc()]++
		c.Compute(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0]+counts[1] != 4 {
		t.Errorf("counts = %v", counts)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("assignment unbalanced: %v", counts)
	}
}
