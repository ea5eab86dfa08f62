//go:build go1.23

// Package sim provides a deterministic discrete-event execution engine for
// virtual-time threads.
//
// Each simulated thread is a coroutine (iter.Pull): the engine resumes
// exactly one thread at a time, always the ready thread with the smallest
// effective virtual clock (ties broken by yield order), and the thread
// switches straight back to the engine when it parks, on the same OS
// thread and without a trip through the Go scheduler. The simulation is
// therefore single-threaded — shared simulation state needs no locking —
// and completely deterministic for a given program. A yield that is
// certain to win the next pick switches no coroutine: the engine
// re-dispatches the thread in place.
//
// Threads advance their own clocks explicitly (Advance, AdvanceSys, Idle)
// and give up control explicitly (Yield, Block). A thread's user time is
// derived, not accumulated: it is its clock less its system time and its
// idle time, where idle time counts the spawn clock, Idle, and every jump
// of the clock to a later time (waiting for a processor, a wake-up or a
// join). A thread may be bound to an exclusive Resource (a simulated
// processor): while one thread runs on a resource, any other thread bound
// to it cannot start before the first yields, which models time-slicing
// without preemption.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync/atomic"

	"numasim/internal/simtrace"
)

// Time is a point in (or span of) virtual time, in nanoseconds.
//
//numalint:unit
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Ticks is a span of virtual time in seconds — the unit of every rendered
// table (the paper reports user/system seconds). It is a distinct type
// from Time (virtual nanoseconds) and from wall-clock measurements, so the
// numalint units analyzer can reject arithmetic that mixes scales.
//
//numalint:unit
type Ticks float64

// Ticks reports t rescaled to virtual seconds. The method is the blessed
// Time→Ticks boundary; converting Ticks(t) directly is a units violation.
func (t Time) Ticks() Ticks { return Ticks(float64(t) / float64(Second)) }

// String formats the time in the most readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// State is a thread's scheduling state.
//
//numalint:stateenum
type State int

// Thread states.
const (
	Ready State = iota
	Running
	Blocked
	Done
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrAborted is the error reported by threads torn down because another
// thread failed or the engine was stopped.
var ErrAborted = errors.New("sim: thread aborted")

// abortSignal unwinds a simulated thread's stack during engine teardown.
type abortSignal struct{}

// Resource is an exclusive unit of execution (a simulated processor). A
// thread bound to a Resource cannot begin running before the resource's
// previous occupant has yielded.
type Resource struct {
	Name string
	// ID is the resource's processor number as reported in trace events;
	// leave it zero for resources that are not processors.
	ID     int
	freeAt Time
}

// Thread is a simulated thread of control.
type Thread struct {
	engine *Engine
	id     int
	name   string
	state  State

	clock Time // thread-local virtual "now"
	sys   Time // accumulated system time
	idle  Time // the spawn clock plus every clock jump that is not work

	res *Resource // bound processor, may be nil

	seq uint64 // yield order, for FIFO tie-breaking
	key Time   // effective time when enqueued on the ready heap
	err error

	// The thread's coroutine: next runs it until it parks or finishes,
	// yield parks it (reporting false once the engine has stopped it),
	// and stop tears it down. yield is nil until the thread first runs.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	joiners []*Thread
	blocked string // reason, for deadlock diagnostics
}

// ID returns the thread's engine-unique id.
//
//numalint:hotpath
func (t *Thread) ID() int { return t.id }

// Clock returns the thread's current virtual time.
//
//numalint:hotpath
func (t *Thread) Clock() Time { return t.clock }

// Bind binds the thread to an exclusive resource, acquiring it immediately:
// if the resource is busy until some later virtual time, the thread idles
// until then. Rebinding models thread migration between processors.
func (t *Thread) Bind(r *Resource) {
	if t.res != nil && t.res.freeAt < t.clock {
		t.res.freeAt = t.clock
	}
	t.res = r
	if r != nil {
		t.idleUntil(r.freeAt)
	}
}

// Advance moves the thread's clock forward by d and accounts it as user
// time. It writes only the clock: user time is what the clock has gained
// beyond system and idle time.
//
//numalint:hotpath
func (t *Thread) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	t.clock += d
}

// userTime returns the thread's user time so far: its clock less its
// system and idle time.
func (t *Thread) userTime() Time { return t.clock - t.sys - t.idle }

// AdvanceSys moves the thread's clock forward by d and accounts it as system
// time (kernel overhead such as fault handling and page copying).
//
//numalint:hotpath
func (t *Thread) AdvanceSys(d Time) {
	if d < 0 {
		panic("sim: negative AdvanceSys")
	}
	t.clock += d
	t.sys += d
}

// Idle moves the thread's clock forward and accounts it as idle time,
// neither user nor system time (e.g. waiting for an I/O device).
func (t *Thread) Idle(d Time) {
	if d < 0 {
		panic("sim: negative Idle")
	}
	t.clock += d
	t.idle += d
}

// idleUntil moves the thread's clock forward to at, if at is later, and
// accounts the jump as idle time.
func (t *Thread) idleUntil(at Time) {
	if t.clock < at {
		t.idle += at - t.clock
		t.clock = at
	}
}

// Yield returns control to the engine, letting other threads whose effective
// clocks are not later than this thread's run first. When the thread is
// certain to win the next pick, the engine re-dispatches it in place,
// without a coroutine switch: the dispatch has advanced the clock (so the
// stall watchdog cannot fire), Stop is unset, and every ready thread's
// heap key, a lower bound on its effective time, is later than the
// thread's own effective time. linearPick keeps the switch, so the
// scheduler-equivalence test compares both paths.
func (t *Thread) Yield() {
	t.mustBeRunning("Yield")
	e := t.engine
	if !e.linearPick && t.clock > e.spanStart && !e.stop.Load() &&
		(len(e.ready) == 0 || e.ready[0].key > t.effTime()) {
		e.redispatch(t)
		return
	}
	t.state = Ready
	t.seq = e.nextSeq()
	e.readyPush(t)
	t.park()
}

// Block suspends the thread until another thread calls Wake. The reason
// string appears in deadlock reports.
func (t *Thread) Block(reason string) {
	t.mustBeRunning("Block")
	t.state = Blocked
	t.blocked = reason
	t.park()
}

// Wake makes a blocked thread ready again, no earlier than virtual time at.
// Waking a thread that is not blocked is a no-op.
func (t *Thread) Wake(at Time) {
	if t.state != Blocked {
		return
	}
	t.state = Ready
	t.blocked = ""
	t.idleUntil(at)
	t.seq = t.engine.nextSeq()
	t.engine.readyPush(t)
}

// Join blocks the calling thread until t has finished, then advances the
// caller's clock to at least t's final clock.
func (t *Thread) Join(caller *Thread) {
	if t == caller {
		panic("sim: thread joining itself")
	}
	if t.state != Done {
		t.joiners = append(t.joiners, caller)
		caller.Block("join " + t.name)
	}
	caller.idleUntil(t.clock)
}

func (t *Thread) mustBeRunning(op string) {
	if t.engine.running != t {
		panic(fmt.Sprintf("sim: %s called from thread %q which is not running", op, t.name))
	}
}

// park hands control back to the engine and waits to be resumed. A
// thread the engine stops while parked unwinds with abortSignal.
func (t *Thread) park() {
	if !t.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// Engine schedules simulated threads in deterministic virtual-time order.
type Engine struct {
	threads []*Thread
	ready   []*Thread // min-heap on (key, seq); key lower-bounds effTime
	running *Thread
	nextID  int
	seq     uint64
	started bool
	// linearPick forces the O(n) ready scan instead of the heap; the
	// scheduler-equivalence property test uses it to drive both
	// implementations on identical programs.
	linearPick bool
	// stop is set by Stop and checked at each dispatch boundary. It sits
	// beside the two flags above, in a word they do not fill.
	stop atomic.Bool
	// Bus, if non-nil, receives structured dispatch and execution-span
	// events. The engine only emits while a sink is attached.
	Bus *simtrace.Bus
	// StallLimit is the watchdog threshold: after this many consecutive
	// dispatches without any virtual-time progress the run is declared a
	// livelock and torn down with a StallError. NewEngine sets
	// DefaultStallLimit; a non-positive value disables the watchdog.
	StallLimit int

	stallRun  int  // consecutive no-progress dispatches
	frontier  Time // high-water mark of dispatch virtual time
	spanStart Time // the running thread's clock at its dispatch
	dumpers   []func() DumpSection
}

// DefaultStallLimit bounds consecutive zero-progress dispatches. Real
// workloads charge virtual time on almost every dispatch, so a run that
// spins this long without the clock moving is livelocked.
const DefaultStallLimit = 1 << 20

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{StallLimit: DefaultStallLimit}
}

// Stop asks the engine to abandon the run at the next dispatch boundary,
// aborting every live thread and returning a StoppedError from Run. It is
// the one engine entry point that is safe to call from another goroutine
// (a wall-clock watchdog); everything else assumes the simulation's
// single-threaded discipline.
func (e *Engine) Stop() { e.stop.Store(true) }

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Spawn creates a new simulated thread that will execute fn when scheduled.
// The thread's initial clock is start. Spawn may be called before Run or from
// within a running thread.
func (e *Engine) Spawn(name string, start Time, fn func(*Thread)) *Thread {
	t := &Thread{
		engine: e,
		id:     e.nextID,
		name:   name,
		state:  Ready,
		clock:  start,
		idle:   start,
		seq:    e.nextSeq(),
	}
	e.nextID++
	e.threads = append(e.threads, t)
	e.readyPush(t)
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.top(fn)
	})
	return t
}

// top is the coroutine body wrapping a thread's function.
func (t *Thread) top(fn func(*Thread)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				t.finish(ErrAborted)
				return
			}
			// Wrap error panics so callers can unwrap typed failures
			// (e.g. numa.ProtocolViolationError) through engine.Run.
			if err, ok := r.(error); ok {
				t.finish(fmt.Errorf("sim: thread %q panicked: %w", t.name, err))
				return
			}
			t.finish(fmt.Errorf("sim: thread %q panicked: %v", t.name, r))
			return
		}
		t.finish(nil)
	}()
	fn(t)
}

func (t *Thread) finish(err error) {
	t.state = Done
	t.err = err
	if t.res != nil && t.res.freeAt < t.clock {
		t.res.freeAt = t.clock
	}
	for _, j := range t.joiners {
		j.Wake(t.clock)
	}
	t.joiners = nil
}

// effTime is the earliest virtual time at which t could actually run.
func (t *Thread) effTime() Time {
	if t.res != nil && t.res.freeAt > t.clock {
		return t.res.freeAt
	}
	return t.clock
}

// pick selects the ready thread with the smallest (effective time, seq).
//
// The ready threads live in a binary min-heap ordered by (key, seq), where
// key is the thread's effective time captured when it was enqueued. A
// ready thread's own clock never changes, but its resource's freeAt can
// grow while it waits, so the stored key is a lower bound on the true
// effective time. pick therefore revalidates the root: if its effective
// time has grown past its key, the key is refreshed and the entry sifted
// down, and the scan repeats. Because every key lower-bounds its thread's
// true effective time, a root whose key is exact is the global minimum,
// and the (effTime, seq) order is identical to the former O(n) scan.
func (e *Engine) pick() *Thread {
	if e.linearPick {
		return e.pickLinear()
	}
	for len(e.ready) > 0 {
		t := e.ready[0]
		if t.state != Ready {
			e.readyPop() // entry gone stale during teardown
			continue
		}
		if et := t.effTime(); et > t.key {
			t.key = et
			e.readyFix(0)
			continue
		}
		e.readyPop()
		return t
	}
	return nil
}

// pickLinear is the original O(n) scan over all threads, kept as the
// reference implementation for the scheduler-equivalence property test.
func (e *Engine) pickLinear() *Thread {
	var best *Thread
	var bestTime Time
	for _, t := range e.threads {
		if t.state != Ready {
			continue
		}
		et := t.effTime()
		if best == nil || et < bestTime || (et == bestTime && t.seq < best.seq) {
			best, bestTime = t, et
		}
	}
	return best
}

// readyPush enqueues a thread that just became Ready.
func (e *Engine) readyPush(t *Thread) {
	if e.linearPick {
		return
	}
	t.key = t.effTime()
	e.ready = append(e.ready, t)
	e.readyUp(len(e.ready) - 1)
}

// readyPop removes the heap root.
func (e *Engine) readyPop() {
	last := len(e.ready) - 1
	e.ready[0] = e.ready[last]
	e.ready[last] = nil
	e.ready = e.ready[:last]
	if last > 0 {
		e.readyFix(0)
	}
}

// readyLess orders heap entries by (key, seq).
func (e *Engine) readyLess(i, j int) bool {
	a, b := e.ready[i], e.ready[j]
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// readyUp restores the heap invariant from leaf i toward the root.
func (e *Engine) readyUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.readyLess(i, parent) {
			break
		}
		e.ready[i], e.ready[parent] = e.ready[parent], e.ready[i]
		i = parent
	}
}

// readyFix restores the heap invariant from node i toward the leaves.
func (e *Engine) readyFix(i int) {
	n := len(e.ready)
	for {
		min := i
		if l := 2*i + 1; l < n && e.readyLess(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && e.readyLess(r, min) {
			min = r
		}
		if min == i {
			return
		}
		e.ready[i], e.ready[min] = e.ready[min], e.ready[i]
		i = min
	}
}

// Run executes the simulation until every thread has finished. It returns
// the first thread error encountered (aborting all other threads), or a
// deadlock error if blocked threads remain with nothing ready.
func (e *Engine) Run() error {
	if e.started {
		return errors.New("sim: engine already run")
	}
	e.started = true
	// A batching sink may hold buffered events; deliver them however the
	// loop exits so post-run readers always see the complete stream.
	defer e.Bus.Flush()
	for {
		if e.stop.Load() {
			err := &StoppedError{Dump: e.DumpState()}
			e.abort()
			return err
		}
		t := e.pick()
		if t == nil {
			if stuck := e.blockedList(); len(stuck) > 0 {
				err := &DeadlockError{Blocked: stuck, Dump: e.DumpState()}
				e.abort()
				return err
			}
			return nil
		}
		t.state = Running
		e.running = t
		e.dispatch(t)
		t.next() // runs until t parks or finishes
		e.running = nil
		e.endSpan(t)
		if t.state == Done && t.err != nil && t.err != ErrAborted {
			err := t.err
			e.abort()
			return err
		}
		// Stall watchdog: a dispatch makes progress when the thread's clock
		// advanced or the dispatch time pushed past the frontier. A long run
		// of zero-progress dispatches at a frozen virtual time is a livelock
		// (threads yielding to each other without charging any time), which
		// the deadlock check above can never catch.
		if t.clock > e.spanStart || e.spanStart > e.frontier {
			e.stallRun = 0
			if t.clock > e.frontier {
				e.frontier = t.clock
			} else if e.spanStart > e.frontier {
				e.frontier = e.spanStart
			}
		} else {
			e.stallRun++
			if e.StallLimit > 0 && e.stallRun >= e.StallLimit {
				err := &StallError{At: e.spanStart, Dispatches: e.stallRun, Dump: e.DumpState()}
				e.abort()
				return err
			}
		}
	}
}

// dispatch opens the span of t, which is about to run: a thread waiting
// for its processor idles until the processor is free.
func (e *Engine) dispatch(t *Thread) {
	t.idleUntil(t.effTime())
	e.spanStart = t.clock
	if e.Bus.Enabled() {
		e.Bus.Emit(simtrace.Event{
			Kind: simtrace.KindDispatch, Proc: resourceID(t.res),
			Thread: int32(t.id), Time: int64(t.clock), Page: -1,
		})
	}
}

// endSpan closes the span of t, which has just stopped running, and
// frees its processor from t's clock on.
func (e *Engine) endSpan(t *Thread) {
	if e.Bus.Enabled() && t.clock > e.spanStart {
		e.Bus.Emit(simtrace.Event{
			Kind: simtrace.KindSpan, Proc: resourceID(t.res),
			Thread: int32(t.id), Time: int64(e.spanStart),
			Dur: int64(t.clock - e.spanStart), Page: -1,
			Label: t.name,
		})
	}
	if t.res != nil && t.res.freeAt < t.clock {
		t.res.freeAt = t.clock
	}
}

// redispatch does in place, for a yielding thread certain to win the next
// pick, what Run does between its yield and that pick's dispatch: it
// closes the span, records the progress that resets the stall watchdog,
// and opens the next span, all without a coroutine switch.
func (e *Engine) redispatch(t *Thread) {
	e.endSpan(t)
	e.stallRun = 0
	if t.clock > e.frontier {
		e.frontier = t.clock
	}
	e.dispatch(t)
}

// resourceID maps a bound resource to its trace processor number (-1 for
// unbound threads).
func resourceID(r *Resource) int32 {
	if r == nil {
		return -1
	}
	return int32(r.ID)
}

// blockedList describes all blocked threads for deadlock reports, one
// "name(reason)" entry per thread, sorted.
func (e *Engine) blockedList() []string {
	var names []string
	for _, t := range e.threads {
		if t.state == Blocked {
			names = append(names, fmt.Sprintf("%s(%s)", t.name, t.blocked))
		}
	}
	sort.Strings(names)
	return names
}

// abort tears down every live thread so their coroutines exit. Stopping a
// started thread makes its pending park unwind with abortSignal, which top
// turns into ErrAborted; a thread that never ran has no stack to unwind,
// so it finishes here.
func (e *Engine) abort() {
	for _, t := range e.threads {
		if t.state == Ready || t.state == Blocked {
			t.state = Running
			if t.yield == nil {
				t.finish(ErrAborted)
			}
			t.stop()
		}
	}
}

// TotalUserTime sums user time across all threads — the paper's "total user
// time across all processors" (T in §3.1).
func (e *Engine) TotalUserTime() Time {
	var sum Time
	for _, t := range e.threads {
		sum += t.userTime()
	}
	return sum
}

// TotalSysTime sums system time across all threads (S in §3.3).
func (e *Engine) TotalSysTime() Time {
	var sum Time
	for _, t := range e.threads {
		sum += t.sys
	}
	return sum
}
