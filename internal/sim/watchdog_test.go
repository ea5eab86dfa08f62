package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"numasim/internal/simtrace"
)

// TestDeadlockErrorIsTyped: a total deadlock returns a *DeadlockError
// carrying the sorted blocked-thread list and a full state dump, and the
// engine still tears every thread down cleanly afterwards.
func TestDeadlockErrorIsTyped(t *testing.T) {
	e := NewEngine()
	b1 := e.Spawn("writer", 0, func(th *Thread) { th.Block("page lock") })
	b2 := e.Spawn("reader", 0, func(th *Thread) {
		th.Advance(Microsecond)
		th.Block("barrier")
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %#v, want *DeadlockError", err)
	}
	want := []string{"reader(barrier)", "writer(page lock)"}
	if len(dl.Blocked) != 2 || dl.Blocked[0] != want[0] || dl.Blocked[1] != want[1] {
		t.Errorf("Blocked = %v, want %v (sorted)", dl.Blocked, want)
	}
	if dl.Dump == nil {
		t.Fatal("deadlock error carries no state dump")
	}
	r := dl.Dump.Render()
	for _, frag := range []string{`blocked on "page lock"`, `blocked on "barrier"`, "threads (2)"} {
		if !strings.Contains(r, frag) {
			t.Errorf("dump missing %q:\n%s", frag, r)
		}
	}
	// Clean teardown: both threads finished with the abort sentinel, so a
	// -race run proves no goroutine is left parked on the engine.
	for _, th := range []*Thread{b1, b2} {
		if th.state != Done || th.err != ErrAborted {
			t.Errorf("thread %s state=%v err=%v, want done/ErrAborted", th.name, th.state, th.err)
		}
	}
}

// TestStallWatchdog: threads that keep yielding without charging virtual
// time are a livelock the deadlock check can never see; the stall
// watchdog must kill the run with a typed error and a dump, and abort
// innocent blocked bystanders.
func TestStallWatchdog(t *testing.T) {
	e := NewEngine()
	e.StallLimit = 64
	e.Spawn("spinner", 0, func(th *Thread) {
		for {
			th.Yield()
		}
	})
	bystander := e.Spawn("bystander", 0, func(th *Thread) { th.Block("forever") })
	err := e.Run()
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("err = %#v, want *StallError", err)
	}
	if st.Dispatches < 64 {
		t.Errorf("Dispatches = %d, want >= StallLimit", st.Dispatches)
	}
	if st.At != 0 {
		t.Errorf("At = %v, want the frozen virtual time 0", st.At)
	}
	if st.Dump == nil || !strings.Contains(st.Dump.Render(), "spinner") {
		t.Error("stall dump missing the spinning thread")
	}
	if bystander.state != Done || bystander.err != ErrAborted {
		t.Errorf("bystander state=%v err=%v, want done/ErrAborted", bystander.state, bystander.err)
	}
}

// TestStallWatchdogDisabled: a non-positive StallLimit turns the
// watchdog off; a finite yield storm then completes normally.
func TestStallWatchdogDisabled(t *testing.T) {
	e := NewEngine()
	e.StallLimit = 0
	e.Spawn("spinner", 0, func(th *Thread) {
		for i := 0; i < 3*DefaultStallLimit/2; i++ {
			th.Yield()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("disabled watchdog still fired: %v", err)
	}
}

// TestProgressResetsStallCounter: real virtual-time progress between
// yield bursts must keep the watchdog quiet.
func TestProgressResetsStallCounter(t *testing.T) {
	e := NewEngine()
	e.StallLimit = 64
	e.Spawn("bursty", 0, func(th *Thread) {
		for burst := 0; burst < 8; burst++ {
			for i := 0; i < 48; i++ { // under the limit per burst
				th.Yield()
			}
			th.Advance(Microsecond) // progress: counter resets
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("watchdog fired despite progress: %v", err)
	}
}

// TestStopAbandonsRun: Engine.Stop (the harness supervisor's wall-clock
// watchdog hook) makes Run return a typed StoppedError with a dump and
// abort every thread at the next dispatch boundary. A lone thread that
// advances and yields wins every pick, so the engine re-dispatches it in
// place and it never returns to Run: its own Yield must see the stop,
// whether the thread or another goroutine set it. Each loop is bounded,
// so a yield that missed the stop lets the thread finish and Run return
// nil rather than hang.
func TestStopAbandonsRun(t *testing.T) {
	const loops, stopAt = 1000, 100
	cases := []struct {
		name string
		// stop, if set, runs in the thread at iteration stopAt, after
		// stopAt in-place re-dispatches; if nil, the engine is stopped
		// before Run.
		stop func(*Engine)
	}{
		{"before Run", nil},
		{"by the thread", func(e *Engine) { e.Stop() }},
		{"from another goroutine", func(e *Engine) {
			stopped := make(chan struct{})
			go func() {
				e.Stop()
				close(stopped)
			}()
			<-stopped
		}},
	}
	for _, c := range cases {
		e := NewEngine()
		var sink simtrace.ListSink
		e.Bus = simtrace.NewBus()
		e.Bus.Attach(&sink)
		last := -1 // the last iteration the thread reached
		th := e.Spawn("worker", 0, func(th *Thread) {
			for i := 0; i < loops; i++ {
				last = i
				th.Advance(Microsecond)
				if i == stopAt {
					c.stop(e)
				}
				th.Yield()
			}
		})
		if c.stop == nil {
			e.Stop() // the first dispatch boundary sees it
		}
		err := e.Run()
		var stopped *StoppedError
		if !errors.As(err, &stopped) {
			t.Fatalf("%s: err = %#v, want *StoppedError", c.name, err)
		}
		if stopped.Dump == nil || !strings.Contains(stopped.Dump.Render(), "worker") {
			t.Errorf("%s: stop dump missing thread table", c.name)
		}
		if th.state != Done || th.err != ErrAborted {
			t.Errorf("%s: worker state=%v err=%v, want done/ErrAborted", c.name, th.state, th.err)
		}
		want := stopAt
		if c.stop == nil {
			want = -1
		}
		if last != want {
			t.Errorf("%s: worker reached iteration %d, want %d: the yield after Stop must end the run", c.name, last, want)
		}
		if got := len(dispatchEvents(sink.Events())); got != want+1 {
			t.Errorf("%s: %d dispatches, want %d", c.name, got, want+1)
		}
	}
}

// TestAbortTearsDownEveryThread: however a run dies — a thread panics,
// every thread deadlocks, the stall watchdog fires or Stop is called —
// teardown finishes every bystander with ErrAborted: one blocked forever,
// and one spawned at a later clock that never starts (except under
// deadlock, where it must run and block before nothing is ready). Many
// such runs leave no thread's goroutine behind.
func TestAbortTearsDownEveryThread(t *testing.T) {
	cases := []struct {
		name string
		// culprit is the body of the thread that kills the run.
		culprit func(*Engine, *Thread)
		isErr   func(error) bool
		// lateRuns reports whether the later thread must start.
		lateRuns bool
	}{
		{"panic", func(*Engine, *Thread) { panic("die") },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "die") }, false},
		{"deadlock", func(_ *Engine, th *Thread) { th.Block("stuck") },
			func(err error) bool { var dl *DeadlockError; return errors.As(err, &dl) }, true},
		{"stall", func(_ *Engine, th *Thread) {
			for {
				th.Yield()
			}
		}, func(err error) bool { var st *StallError; return errors.As(err, &st) }, false},
		{"stop", func(e *Engine, th *Thread) {
			th.Advance(Microsecond)
			e.Stop()
			th.Yield()
		}, func(err error) bool { var sp *StoppedError; return errors.As(err, &sp) }, false},
	}
	run := func(i int) {
		c := cases[i]
		e := NewEngine()
		e.StallLimit = 64
		blocked := e.Spawn("blocked", 0, func(th *Thread) { th.Block("forever") })
		culprit := e.Spawn("culprit", 0, func(th *Thread) { c.culprit(e, th) })
		lateRan := false
		late := e.Spawn("late", Second, func(th *Thread) {
			lateRan = true
			th.Block("late")
		})
		if err := e.Run(); !c.isErr(err) {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		if lateRan != c.lateRuns {
			t.Errorf("%s: late thread ran = %v, want %v", c.name, lateRan, c.lateRuns)
		}
		for _, th := range []*Thread{blocked, late} {
			if th.state != Done || th.err != ErrAborted {
				t.Errorf("%s: %s state=%v err=%v, want done/ErrAborted", c.name, th.name, th.state, th.err)
			}
		}
		if culprit.state != Done {
			t.Errorf("%s: culprit state=%v, want done", c.name, culprit.state)
		}
	}
	before := runtime.NumGoroutine()
	for n := 0; n < 50; n++ {
		run(n % len(cases))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after 50 aborted runs = %d, want at most %d", got, before)
	}
}

// TestDumpSections: subsystem sections registered with AddDumpSection
// render after the engine's own tables, in registration order.
func TestDumpSections(t *testing.T) {
	e := NewEngine()
	e.AddDumpSection(func() DumpSection { return DumpSection{Title: "NUMA directory", Body: "live pages: 0\n"} })
	e.AddDumpSection(func() DumpSection { return DumpSection{Title: "second", Body: "no newline"} })
	e.Spawn("t", 0, func(th *Thread) { th.Advance(Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r := e.DumpState().Render()
	i, j := strings.Index(r, "--- NUMA directory ---"), strings.Index(r, "--- second ---")
	if i < 0 || j < 0 || i > j {
		t.Errorf("sections missing or out of order:\n%s", r)
	}
	if !strings.HasSuffix(r, "no newline\n") {
		t.Errorf("render must terminate unterminated sections:\n%q", r)
	}
	if !strings.Contains(r, "=== machine state at 1.000ms ===") {
		t.Errorf("dump header missing frontier time:\n%s", r)
	}
}
