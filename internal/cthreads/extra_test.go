package cthreads_test

import (
	"testing"

	"numasim/internal/cthreads"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

func TestBroadcastWakesAll(t *testing.T) {
	r := newRuntime(3, sched.Affinity)
	var mu cthreads.Mutex
	var cv cthreads.Cond
	ready := false
	woken := 0
	err := r.Run(3, func(id int, c *vm.Context) {
		if id == 0 {
			c.Compute(200)
			mu.Lock(c)
			ready = true
			cv.Broadcast(c)
			mu.Unlock(c)
			return
		}
		mu.Lock(c)
		for !ready {
			cv.Wait(c, &mu)
		}
		woken++
		mu.Unlock(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if woken != 2 {
		t.Errorf("woken = %d, want 2", woken)
	}
}

func TestJoinAllAndAccessors(t *testing.T) {
	r := newRuntime(2, sched.Affinity)
	if r.Kernel() == nil {
		t.Fatal("nil kernel")
	}
	data := r.Alloc("d", 8)
	err := r.Main(func(c *vm.Context) {
		th := r.Fork("child", c.Thread().Clock(), func(wc *vm.Context) {
			wc.Store32(data, 9)
		})
		if th.Name() != "child" || th.Sim() == nil {
			t.Error("thread accessors wrong")
		}
		r.JoinAll(c)
		if c.Load32(data) != 9 {
			t.Error("JoinAll returned before child finished")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewSharedRuntimesShareMachine(t *testing.T) {
	r1 := newRuntime(2, sched.Affinity)
	k := r1.Kernel()
	s := r1.Scheduler()
	r2 := cthreads.NewShared(k, s, "second")
	if r2.Task() == r1.Task() {
		t.Fatal("shared runtimes must have distinct address spaces")
	}
	a := r1.Alloc("a", 8)
	b := r2.Alloc("b", 8)
	done := 0
	r1.Start(1, func(id int, c *vm.Context) {
		c.Store32(a, 1)
		done++
	})
	r2.Start(1, func(id int, c *vm.Context) {
		c.Store32(b, 2)
		done++
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Errorf("done = %d", done)
	}
}

func TestSpinLockUncontendedFastPath(t *testing.T) {
	r := newRuntime(1, sched.Affinity)
	lock := r.NewSpinLock()
	var elapsed sim.Time
	err := r.Run(1, func(id int, c *vm.Context) {
		lock.Lock(c) // warm: page fault etc.
		lock.Unlock(c)
		before := c.Thread().Clock()
		lock.Lock(c)
		lock.Unlock(c)
		elapsed = c.Thread().Clock() - before
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uncontended lock+unlock: one test-and-set (fetch+store) plus one
	// store, all local.
	spec := r.Kernel().Machine().Spec()
	home := spec.Home(0)
	want := spec.FetchLatency(0, home) + 2*spec.StoreLatency(0, home)
	if elapsed != want {
		t.Errorf("uncontended lock cycle = %v, want %v", elapsed, want)
	}
}

// TestManyThreadsPerProcessor oversubscribes the machine (8 threads per
// CPU): the affinity scheduler spreads them, the engine time-slices each
// processor, and the work still completes correctly.
func TestManyThreadsPerProcessor(t *testing.T) {
	r := newRuntime(4, sched.Affinity)
	const threads = 32
	counter := r.Alloc("counter", 4)
	lock := r.NewSpinLock()
	err := r.Run(threads, func(id int, c *vm.Context) {
		c.Compute(200)
		lock.Lock(c)
		c.Store32(counter, c.Load32(counter)+1)
		lock.Unlock(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	pg := r.Task().EntryAt(counter).Object().Page(0)
	if got := pg.Authoritative().Load32(0); got != threads {
		t.Errorf("counter = %d, want %d", got, threads)
	}
	// Total user time must be at least the serialized compute.
	min := sim.Time(threads) * 200 * 500 * sim.Nanosecond
	if got := r.Kernel().Machine().Engine().TotalUserTime(); got < min {
		t.Errorf("user time %v < compute %v", got, min)
	}
}
