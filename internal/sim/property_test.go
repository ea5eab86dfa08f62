package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"numasim/internal/simtrace"
)

// TestUserTimeConservation: total user time equals the sum of all Advance
// calls, no matter how threads interleave, block or share processors.
func TestUserTimeConservation(t *testing.T) {
	prop := func(seed int64, nThreads uint8, nOps uint8) bool {
		n := int(nThreads)%5 + 1
		ops := int(nOps)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		cpu := &Resource{Name: "cpu"}
		var want Time
		plans := make([][]Time, n)
		for i := range plans {
			for j := 0; j < ops; j++ {
				d := Time(rng.Intn(1000)) * Microsecond
				plans[i] = append(plans[i], d)
				want += d
			}
		}
		for i := 0; i < n; i++ {
			i := i
			e.Spawn("t", Time(rng.Intn(100))*Microsecond, func(th *Thread) {
				if i%2 == 0 {
					th.Bind(cpu) // half the threads share one processor
				}
				for _, d := range plans[i] {
					th.Advance(d)
					if d%3 == 0 {
						th.Yield()
					}
					if d%7 == 0 {
						th.Idle(d / 2)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.TotalUserTime() == want
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

// scheduleTrace runs a randomized program of Spawn/Advance/Yield/Block/
// Wake/Bind/Join operations on an engine and records the exact schedule:
// the (thread id, clock) pair at every context switch, plus each thread's
// final clock and user time and the run's error. The program is fully
// determined by the seed, so two engines given the same seed execute the
// same program.
func scheduleTrace(seed int64, linear bool) (schedule []int64, err error) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.linearPick = linear
	cpus := []*Resource{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	var sink simtrace.ListSink
	e.Bus = simtrace.NewBus()
	e.Bus.Attach(&sink)
	n := rng.Intn(6) + 2
	threads := make([]*Thread, n)
	body := func(i int) func(*Thread) {
		return func(th *Thread) {
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
					// in both engines) resolves it.
					th.Block("rnd")
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
	schedule = dispatches(sink.Events())
	for _, t := range threads {
		schedule = append(schedule, int64(t.Clock()), int64(t.user), int64(t.sys))
	}
	return schedule, err
}

// dispatches extracts the (thread id, clock) pair of every context switch
// from an engine's event stream.
func dispatches(events []simtrace.Event) []int64 {
	var out []int64
	for _, ev := range events {
		if ev.Kind == simtrace.KindDispatch {
			out = append(out, int64(ev.Thread), ev.Time)
		}
	}
	return out
}

// TestPickHeapMatchesLinearScan: the heap-based ready queue must produce
// exactly the schedule of the original O(n) scan — same threads resumed in
// the same order at the same clocks — on randomized programs exercising
// Spawn, Yield, Block, Wake and Bind. Deadlocking programs must deadlock
// identically.
func TestPickHeapMatchesLinearScan(t *testing.T) {
	prop := func(seed int64) bool {
		heapSched, heapErr := scheduleTrace(seed, false)
		linSched, linErr := scheduleTrace(seed, true)
		if len(heapSched) != len(linSched) {
			t.Logf("seed %d: schedule lengths differ: heap %d, linear %d", seed, len(heapSched), len(linSched))
			return false
		}
		for i := range heapSched {
			if heapSched[i] != linSched[i] {
				t.Logf("seed %d: schedules diverge at %d: heap %d, linear %d", seed, i, heapSched[i], linSched[i])
				return false
			}
		}
		heapMsg, linMsg := "", ""
		if heapErr != nil {
			heapMsg = heapErr.Error()
		}
		if linErr != nil {
			linMsg = linErr.Error()
		}
		if heapMsg != linMsg {
			t.Logf("seed %d: errors differ: heap %q, linear %q", seed, heapMsg, linMsg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
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
