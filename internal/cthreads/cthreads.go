// Package cthreads provides the parallel programming environment the
// paper's applications use: a Mach C-Threads-like package with "a single,
// uniform memory" in which all data is implicitly shared (§3.2).
//
// Threads fork into one shared task and are bound to processors by the
// affinity scheduler. Spin locks are real words in simulated shared
// memory, acquired with test-and-set, so synchronization traffic itself
// exercises NUMA placement exactly as on the ACE — including the false
// sharing that interspersed private and shared data causes.
package cthreads

import (
	"fmt"

	"numasim/internal/mmu"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

// Runtime is one C-Threads program instance: a shared address space, a
// scheduler, and allocation helpers.
type Runtime struct {
	kernel *vm.Kernel
	task   *vm.Task
	sched  *sched.Scheduler

	// syncVA/syncOff carve spin-lock words out of shared pages, several
	// locks per page, as a real loader would.
	syncVA  uint32
	syncOff uint32
}

// New creates a C-Threads runtime on kernel with the given scheduling
// discipline.
func New(k *vm.Kernel, mode sched.Mode) *Runtime {
	return NewShared(k, sched.New(k, mode))
}

// NewShared creates a C-Threads runtime (its own task/address space) on a
// scheduler that may be shared with other runtimes. Several programs can
// thus run concurrently on one machine — the multiprogrammed "application
// mix" whose locality the paper's system manages as a whole.
func NewShared(k *vm.Kernel, s *sched.Scheduler) *Runtime {
	// Connect the co-placement channel: a ThreadAdvisor-capable policy
	// can now ask the scheduler to migrate threads toward their hot
	// pages. With any other policy the channel carries nothing.
	k.NUMA().SetThreadMover(s)
	return &Runtime{
		kernel: k,
		task:   k.NewTask(),
		sched:  s,
	}
}

// Kernel returns the runtime's kernel.
func (r *Runtime) Kernel() *vm.Kernel { return r.kernel }

// Task returns the shared address space.
func (r *Runtime) Task() *vm.Task { return r.task }

// Alloc allocates a shared read-write region. Like data placed by the
// C-Threads loader, everything is potentially shared; segregation into
// pages is the only placement control an application has.
func (r *Runtime) Alloc(name string, size uint32) uint32 {
	return r.task.Allocate(name, size, mmu.ProtReadWrite)
}

// Thread is a forked C-thread.
type Thread struct {
	th *sim.Thread
}

// Fork starts fn on a new thread in the shared task, bound to a processor
// by the affinity rule. start is the new thread's initial virtual time.
func (r *Runtime) Fork(name string, start sim.Time, fn func(*vm.Context)) *Thread {
	return &Thread{th: r.sched.Spawn(name, r.task, start, fn)}
}

// Join blocks c's thread until t finishes.
func (t *Thread) Join(c *vm.Context) {
	t.th.Join(c.Thread())
}

// Start forks one thread per processor without running the engine (so
// several programs can be started before one engine run). fn receives the
// worker index and the worker's context.
func (r *Runtime) Start(nworkers int, fn func(id int, c *vm.Context)) {
	if nworkers <= 0 {
		nworkers = r.kernel.Machine().NProc()
	}
	for i := 0; i < nworkers; i++ {
		i := i
		r.Fork(fmt.Sprintf("worker%d", i), 0, func(c *vm.Context) {
			fn(i, c)
		})
	}
}

// Run forks one thread per processor, waits for all of them, and returns.
// It is the "parallel section" helper every application uses. fn receives
// the worker index and the worker's context.
func (r *Runtime) Run(nworkers int, fn func(id int, c *vm.Context)) error {
	r.Start(nworkers, fn)
	return r.kernel.Machine().Engine().Run()
}

// StartMain forks a coordinating thread (which may itself fork workers and
// join them) without running the engine.
func (r *Runtime) StartMain(fn func(c *vm.Context)) {
	r.Fork("main", 0, fn)
}

// ForkWorkers forks n workers from a running coordinator thread, starting
// at its current virtual time, and returns them for joining.
func (r *Runtime) ForkWorkers(c *vm.Context, n int, fn func(id int, c *vm.Context)) []*Thread {
	if n <= 0 {
		n = r.kernel.Machine().NProc()
	}
	out := make([]*Thread, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = r.Fork(fmt.Sprintf("worker%d", i), c.Thread().Clock(), func(wc *vm.Context) {
			fn(i, wc)
		})
	}
	return out
}

// SpinLock is a test-and-set lock on a word of shared memory. The paper's
// applications "synchronize their threads using non-blocking spin locks"
// (§3.1); the lock word's page is subject to NUMA placement like any
// other.
type SpinLock struct {
	va uint32
}

// NewSpinLock allocates a lock word from the runtime's sync pages (several
// locks share a page, as a loader would lay them out).
//
//numalint:api numasim.Runtime re-exports it; TestPublicAPIEndToEnd (numasim) and the cthreads tests call it
func (r *Runtime) NewSpinLock() *SpinLock {
	ps := uint32(r.kernel.Machine().PageSize())
	if r.syncVA == 0 || r.syncOff+4 > ps {
		r.syncVA = r.Alloc("sync", ps)
		r.syncOff = 0
	}
	l := &SpinLock{va: r.syncVA + r.syncOff}
	r.syncOff += 4
	return l
}

// NewSpinLockAt places a lock word at an application-chosen address, the
// manual segregation tool the paper's tuned applications use.
func NewSpinLockAt(va uint32) *SpinLock { return &SpinLock{va: va} }

// Lock acquires the lock with test-and-set. On contention the C-Threads
// runtime yields the processor between probes (cthread_yield), with
// exponential backoff so that a holder delayed by a multi-millisecond
// page move is not buried under probe traffic; the waiting shows up as
// idle time, not user time, exactly as a yielded processor's would.
func (l *SpinLock) Lock(c *vm.Context) {
	if c.TestAndSet(l.va) == 0 {
		return
	}
	wait := 20 * sim.Microsecond
	for {
		c.Thread().Idle(wait)
		c.Thread().Yield()
		if c.TestAndSet(l.va) == 0 {
			return
		}
		if wait < sim.Millisecond {
			wait *= 2
		}
	}
}

// Unlock releases the lock.
func (l *SpinLock) Unlock(c *vm.Context) {
	c.Store32(l.va, 0)
}

// Mutex is a blocking (descheduling) lock, provided for completeness; the
// paper's applications use spin locks.
type Mutex struct {
	held    bool
	waiters []*sim.Thread
}

// Lock acquires the mutex, descheduling the thread if it is held.
func (m *Mutex) Lock(c *vm.Context) {
	th := c.Thread()
	for m.held {
		m.waiters = append(m.waiters, th)
		th.Block("mutex")
	}
	m.held = true
}

// Unlock releases the mutex and wakes one waiter.
func (m *Mutex) Unlock(c *vm.Context) {
	if !m.held {
		panic("cthreads: Unlock of unheld mutex")
	}
	m.held = false
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w.Wake(c.Thread().Clock())
	}
}

// Cond is a condition variable used with Mutex.
type Cond struct {
	waiters []*sim.Thread
}

// Wait atomically releases mu and suspends the thread until Signal or
// Broadcast, then reacquires mu.
//
//numalint:api numasim.Cond re-exports it; the cthreads tests call it
func (cv *Cond) Wait(c *vm.Context, mu *Mutex) {
	th := c.Thread()
	cv.waiters = append(cv.waiters, th)
	mu.Unlock(c)
	th.Block("cond")
	mu.Lock(c)
}

// Signal wakes one waiter.
//
//numalint:api numasim.Cond re-exports it; the cthreads tests call it
func (cv *Cond) Signal(c *vm.Context) {
	if len(cv.waiters) == 0 {
		return
	}
	w := cv.waiters[0]
	cv.waiters = cv.waiters[1:]
	w.Wake(c.Thread().Clock())
}

// Broadcast wakes every waiter.
//
//numalint:api numasim.Cond re-exports it; the cthreads tests call it
func (cv *Cond) Broadcast(c *vm.Context) {
	at := c.Thread().Clock()
	for _, w := range cv.waiters {
		w.Wake(at)
	}
	cv.waiters = nil
}

// Barrier makes n threads wait for each other.
type Barrier struct {
	n       int
	arrived int
	gen     int
	waiters []*sim.Thread
}

// NewBarrier creates a barrier for n threads.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("cthreads: barrier size < 1")
	}
	return &Barrier{n: n}
}

// Wait blocks until n threads have arrived.
func (b *Barrier) Wait(c *vm.Context) {
	th := c.Thread()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		at := th.Clock()
		for _, w := range b.waiters {
			w.Wake(at)
		}
		b.waiters = nil
		return
	}
	b.waiters = append(b.waiters, th)
	gen := b.gen
	for gen == b.gen {
		th.Block("barrier")
	}
}

// WorkPile is the paper's work-allocation structure: a shared counter
// guarded by a spin lock, handing out unit-of-work indices. ("Its only
// data references are for workload allocation", §3.2 on ParMult.)
type WorkPile struct {
	lock  *SpinLock
	ctrVA uint32
	limit uint32
}

// NewWorkPile creates a pile of n work units. The counter and its lock
// live in shared memory and are subject to placement like everything else.
func (r *Runtime) NewWorkPile(n uint32) *WorkPile {
	base := r.Alloc("workpile", 8)
	return &WorkPile{
		lock:  NewSpinLockAt(base),
		ctrVA: base + 4,
		limit: n,
	}
}

// Next hands out the next work index; ok is false when the pile is empty.
func (w *WorkPile) Next(c *vm.Context) (idx uint32, ok bool) {
	w.lock.Lock(c)
	idx = c.Load32(w.ctrVA)
	if idx < w.limit {
		c.Store32(w.ctrVA, idx+1)
		ok = true
	}
	w.lock.Unlock(c)
	return idx, ok
}

// NextBatch hands out up to batch consecutive work indices, reducing lock
// traffic for fine-grained work (used by the sieve).
func (w *WorkPile) NextBatch(c *vm.Context, batch uint32) (lo, hi uint32, ok bool) {
	w.lock.Lock(c)
	lo = c.Load32(w.ctrVA)
	if lo < w.limit {
		hi = lo + batch
		if hi > w.limit {
			hi = w.limit
		}
		c.Store32(w.ctrVA, hi)
		ok = true
	}
	w.lock.Unlock(c)
	return lo, hi, ok
}
