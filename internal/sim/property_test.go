package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"numasim/internal/simtrace"
)

// TestUserTimeConservation: total user time equals the sum of all Advance
// calls, total system time the sum of all AdvanceSys calls, and each
// thread's dumped user time its own Advance calls, no matter how threads
// interleave, block or share processors. User time is derived from the
// clock, so the program makes the clock jump every way that is not work:
// spawns at later clocks, Idle, a Bind onto a processor another thread
// has kept busy, a dispatch onto such a processor, a Wake at a later
// time, and a Join of a thread that ends later: one that has already
// ended, one that has not, and one cut short by another thread's Wake
// while the joined thread's clock is still ahead.
func TestUserTimeConservation(t *testing.T) {
	prop := func(seed int64, nThreads uint8, nOps uint8) bool {
		n := int(nThreads)%5 + 1
		ops := int(nOps)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		cpus := []*Resource{{Name: "cpu0"}, {Name: "cpu1"}}
		user := map[int]Time{} // Σ Advance per thread id
		var sys Time           // Σ AdvanceSys
		dur := func(max int) Time { return Time(rng.Intn(max)) * Microsecond }
		advance := func(th *Thread, d Time) {
			th.Advance(d)
			user[th.ID()] += d
		}
		advanceSys := func(th *Thread, d Time) {
			th.AdvanceSys(d)
			sys += d
		}
		// work runs a few references' worth of user and system time.
		work := func(th *Thread) {
			for k := rng.Intn(4); k >= 0; k-- {
				advance(th, dur(300))
				if rng.Intn(3) == 0 {
					advanceSys(th, dur(100))
				}
			}
		}
		body := func(th *Thread) {
			if th.ID()%2 == 0 {
				th.Bind(cpus[0]) // half the threads share one processor
			}
			for j := 0; j < ops; j++ {
				switch rng.Intn(9) {
				case 0, 1:
					work(th)
				case 2:
					th.Yield()
				case 3:
					th.Idle(dur(200))
				case 4:
					// Onto a processor another thread may have kept busy.
					th.Bind(cpus[rng.Intn(len(cpus))])
				case 5:
					// A child that starts later and ends later; the parent
					// idles for a while first, so the child has sometimes
					// ended before the Join and sometimes not.
					child := e.Spawn("child", th.Clock()+dur(200), work)
					th.Idle(dur(400))
					th.Yield()
					child.Join(th)
				case 6:
					// A waker that wakes this thread later than it blocked.
					me := th
					e.Spawn("waker", th.Clock()+dur(100), func(w *Thread) {
						work(w)
						me.Wake(w.Clock() + dur(200))
					})
					th.Block("wake")
				case 7:
					advanceSys(th, dur(100))
				case 8:
					// A nudger wakes this thread out of its Join before the
					// child, which starts much later, has run.
					child := e.Spawn("child", th.Clock()+Millisecond+dur(200), work)
					me := th
					e.Spawn("nudger", th.Clock()+dur(100), func(w *Thread) {
						me.Wake(w.Clock())
					})
					child.Join(th)
				}
			}
		}
		for i := 0; i < n; i++ {
			e.Spawn("t", dur(100), body)
		}
		if err := e.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var want Time
		for _, d := range user {
			want += d
		}
		if got := e.TotalUserTime(); got != want {
			t.Logf("seed %d: TotalUserTime = %v, want Σ Advance = %v", seed, got, want)
			return false
		}
		if got := e.TotalSysTime(); got != sys {
			t.Logf("seed %d: TotalSysTime = %v, want Σ AdvanceSys = %v", seed, got, sys)
			return false
		}
		for _, td := range e.DumpState().Threads {
			if td.User != user[td.ID] {
				t.Logf("seed %d: thread %d (%s) dumps user %v, want its Σ Advance = %v", seed, td.ID, td.Name, td.User, user[td.ID])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestClockMonotonic: a thread's clock never decreases across any sequence
// of engine operations.
func TestClockMonotonic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		cpus := []*Resource{{Name: "a"}, {Name: "b"}}
		ok := true
		for i := 0; i < 3; i++ {
			e.Spawn("t", 0, func(th *Thread) {
				last := th.Clock()
				check := func() {
					if th.Clock() < last {
						ok = false
					}
					last = th.Clock()
				}
				for j := 0; j < 30; j++ {
					switch rng.Intn(4) {
					case 0:
						th.Advance(Time(rng.Intn(500)) * Microsecond)
					case 1:
						th.Yield()
					case 2:
						th.Bind(cpus[rng.Intn(2)])
					case 3:
						th.AdvanceSys(Time(rng.Intn(200)) * Microsecond)
					}
					check()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Program shapes for scheduleTrace.
const (
	// shapeMixed: two to seven threads on three processors.
	shapeMixed = iota
	// shapeLone: one thread, which wins every pick once its clock moves,
	// so nearly every yield re-dispatches it in place.
	shapeLone
	// shapeOneProc: two to seven threads that all run on one processor.
	shapeOneProc
	numShapes
)

// scheduleTrace runs a randomized program of Spawn/Advance/Yield/Block/
// Wake/Bind operations of the given shape on an engine and records the
// exact schedule: every dispatch and span event, then each thread's final
// clock, user and system time, and the run's error. The program is fully
// determined by the seed, so two engines given the same seed execute the
// same program.
func scheduleTrace(seed int64, shape int, linear bool) (schedule []string, err error) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.linearPick = linear
	cpus := []*Resource{{Name: "a", ID: 0}, {Name: "b", ID: 1}, {Name: "c", ID: 2}}
	var sink simtrace.ListSink
	e.Bus = simtrace.NewBus()
	e.Bus.Attach(&sink)
	n := rng.Intn(6) + 2
	switch shape {
	case shapeLone:
		n = 1
	case shapeOneProc:
		cpus = cpus[:1]
	}
	threads := make([]*Thread, n)
	body := func(i int) func(*Thread) {
		return func(th *Thread) {
			if shape == shapeOneProc {
				th.Bind(cpus[0])
			}
			ops := rng.Intn(30) + 5
			for j := 0; j < ops; j++ {
				switch rng.Intn(10) {
				case 0, 1, 2:
					th.Advance(Time(rng.Intn(700)) * Microsecond)
				case 3:
					th.AdvanceSys(Time(rng.Intn(200)) * Microsecond)
				case 4:
					th.Idle(Time(rng.Intn(100)) * Microsecond)
				case 5, 6:
					th.Yield()
				case 7:
					th.Bind(cpus[rng.Intn(len(cpus))])
				case 8:
					// Wake a random peer (a no-op unless it is blocked).
					if p := threads[rng.Intn(n)]; p != nil && p != th {
						p.Wake(th.Clock())
					}
				case 9:
					// Block; a peer's case-8 wake (or a deadlock, identical
					// in both engines) resolves it. A lone thread has no
					// peer to wake it, so it keeps running instead.
					if n > 1 {
						th.Block("rnd")
					}
				}
			}
			// Wake everyone on the way out so most runs terminate cleanly.
			for _, p := range threads {
				if p != nil && p != th {
					p.Wake(th.Clock())
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		threads[i] = e.Spawn(fmt.Sprintf("t%d", i), Time(rng.Intn(50))*Microsecond, body(i))
	}
	err = e.Run()
	for _, ev := range sink.Events() {
		if ev.Kind == simtrace.KindDispatch || ev.Kind == simtrace.KindSpan {
			schedule = append(schedule, fmt.Sprintf("%v proc=%d thread=%d time=%d dur=%d label=%q",
				ev.Kind, ev.Proc, ev.Thread, ev.Time, ev.Dur, ev.Label))
		}
	}
	for _, t := range threads {
		schedule = append(schedule, fmt.Sprintf("%s clock=%d user=%d sys=%d",
			t.name, t.Clock(), t.userTime(), t.sys))
	}
	return schedule, err
}

// dispatchEvents returns the dispatch events, one per context switch or
// in-place re-dispatch, of an engine's event stream.
func dispatchEvents(events []simtrace.Event) []simtrace.Event {
	var out []simtrace.Event
	for _, ev := range events {
		if ev.Kind == simtrace.KindDispatch {
			out = append(out, ev)
		}
	}
	return out
}

// TestPickHeapMatchesLinearScan: the heap-based ready queue, which
// re-dispatches a yielding thread in place when it is certain to win the
// next pick, must produce exactly the schedule of the original O(n) scan,
// which always switches — the same dispatch and span events, and the same
// clock, user and system time for every thread — on randomized programs
// exercising Spawn, Yield, Block, Wake and Bind, among them a lone thread
// and threads sharing one processor, where the in-place path fires most.
// Deadlocking programs must deadlock identically.
func TestPickHeapMatchesLinearScan(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		prop := func(seed int64) bool {
			heapSched, heapErr := scheduleTrace(seed, shape, false)
			linSched, linErr := scheduleTrace(seed, shape, true)
			for i := 0; i < len(heapSched) && i < len(linSched); i++ {
				if heapSched[i] != linSched[i] {
					t.Logf("shape %d seed %d: schedules diverge at %d:\n  heap   %s\n  linear %s",
						shape, seed, i, heapSched[i], linSched[i])
					return false
				}
			}
			if len(heapSched) != len(linSched) {
				t.Logf("shape %d seed %d: schedule lengths differ: heap %d, linear %d",
					shape, seed, len(heapSched), len(linSched))
				return false
			}
			heapMsg, linMsg := "", ""
			if heapErr != nil {
				heapMsg = heapErr.Error()
			}
			if linErr != nil {
				linMsg = linErr.Error()
			}
			if heapMsg != linMsg {
				t.Logf("shape %d seed %d: errors differ: heap %q, linear %q", shape, seed, heapMsg, linMsg)
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
			t.Errorf("shape %d: %v", shape, err)
		}
	}
}

// TestResourceSerialization: two threads bound to one resource never
// overlap — the sum of their busy times never exceeds the final clock.
func TestResourceSerialization(t *testing.T) {
	e := NewEngine()
	cpu := &Resource{Name: "cpu"}
	var busy Time
	var maxClock Time
	for i := 0; i < 4; i++ {
		e.Spawn("t", 0, func(th *Thread) {
			th.Bind(cpu)
			for j := 0; j < 10; j++ {
				th.Advance(100 * Microsecond)
				busy += 100 * Microsecond
				th.Yield()
			}
			if th.Clock() > maxClock {
				maxClock = th.Clock()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if busy > maxClock {
		t.Errorf("busy time %v exceeds elapsed %v: threads overlapped on one CPU", busy, maxClock)
	}
	if maxClock != 4*10*100*Microsecond {
		t.Errorf("elapsed %v, want exactly the serialized work", maxClock)
	}
}
