package sim

import (
	"strings"
	"testing"

	"numasim/internal/simtrace"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3*Millisecond + 500*Microsecond, "3.500ms"},
		{2*Second + 250*Millisecond, "2.250s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Ready: "ready", Running: "running", Blocked: "blocked", Done: "done", State(42): "state(42)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestSingleThreadRuns(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("a", 0, func(th *Thread) {
		th.Advance(10 * Microsecond)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("thread body did not run")
	}
	if got := e.TotalUserTime(); got != 10*Microsecond {
		t.Errorf("TotalUserTime = %v, want 10µs", got)
	}
}

func TestLowestClockRunsFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	// b starts earlier in virtual time than a, so even though a is spawned
	// first, b must run first.
	e.Spawn("a", 100*Microsecond, func(th *Thread) {
		order = append(order, "a")
	})
	e.Spawn("b", 0, func(th *Thread) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("order = %v, want [b a]", order)
	}
}

func TestInterleavingByYield(t *testing.T) {
	e := NewEngine()
	var order []string
	mk := func(name string) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				th.Advance(10 * Microsecond)
				th.Yield()
			}
		}
	}
	e.Spawn("a", 0, mk("a"))
	e.Spawn("b", 0, mk("b"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a b a b a b"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn("t", Time(i%2)*Microsecond, func(th *Thread) {
				for j := 0; j < 4; j++ {
					order = append(order, i)
					th.Advance(Time(3+i) * Microsecond)
					th.Yield()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestResourceExclusion(t *testing.T) {
	e := NewEngine()
	cpu := &Resource{Name: "cpu0"}
	var finish []Time
	for i := 0; i < 2; i++ {
		e.Spawn("t", 0, func(th *Thread) {
			th.Bind(cpu)
			th.Advance(100 * Microsecond)
			finish = append(finish, th.Clock())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Second thread cannot start until the first has used the CPU for 100µs.
	if finish[0] != 100*Microsecond || finish[1] != 200*Microsecond {
		t.Errorf("finish times = %v, want [100µs 200µs]", finish)
	}
}

func TestResourceWaitIsNotUserTime(t *testing.T) {
	e := NewEngine()
	cpu := &Resource{Name: "cpu0"}
	var t2 *Thread
	t1 := e.Spawn("t1", 0, func(th *Thread) {
		th.Bind(cpu)
		th.Advance(100 * Microsecond)
	})
	t2 = e.Spawn("t2", 0, func(th *Thread) {
		th.Bind(cpu)
		th.Yield() // let t1 grab the cpu
		th.Advance(50 * Microsecond)
	})
	_ = t1
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t2.userTime() != 50*Microsecond {
		t.Errorf("t2 user time = %v, want 50µs (queue wait must not count)", t2.userTime())
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var waiter *Thread
	var wokenAt Time
	waiter = e.Spawn("waiter", 0, func(th *Thread) {
		th.Block("event")
		wokenAt = th.Clock()
	})
	e.Spawn("waker", 0, func(th *Thread) {
		th.Advance(500 * Microsecond)
		waiter.Wake(th.Clock())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 500*Microsecond {
		t.Errorf("woken at %v, want 500µs", wokenAt)
	}
}

func TestWakeNonBlockedIsNoop(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", 0, func(th *Thread) { th.Advance(Microsecond) })
	e.Spawn("b", 0, func(th *Thread) {
		a.Wake(100 * Second) // a is ready, not blocked: must not touch its clock
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Clock() != Microsecond {
		t.Errorf("a clock = %v, want 1µs", a.Clock())
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine()
	var child *Thread
	child = e.Spawn("child", 0, func(th *Thread) {
		th.Advance(300 * Microsecond)
	})
	var after Time
	e.Spawn("parent", 0, func(th *Thread) {
		child.Join(th)
		after = th.Clock()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 300*Microsecond {
		t.Errorf("parent resumed at %v, want 300µs", after)
	}
}

func TestJoinAlreadyDone(t *testing.T) {
	e := NewEngine()
	child := e.Spawn("child", 0, func(th *Thread) { th.Advance(10 * Microsecond) })
	e.Spawn("parent", 50*Microsecond, func(th *Thread) {
		child.Join(th) // child finished long ago
		if th.Clock() != 50*Microsecond {
			t.Errorf("parent clock = %v, want unchanged 50µs", th.Clock())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", 0, func(th *Thread) {
		th.Block("never")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck(never)") {
		t.Errorf("deadlock report %q missing thread detail", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", 0, func(th *Thread) {
		panic("kaboom")
	})
	e.Spawn("bystander", 0, func(th *Thread) {
		for {
			th.Advance(Microsecond)
			th.Yield()
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func TestAbortTearsDownBlocked(t *testing.T) {
	e := NewEngine()
	blocked := e.Spawn("blocked", 0, func(th *Thread) { th.Block("forever") })
	e.Spawn("boom", 0, func(th *Thread) {
		th.Advance(Microsecond)
		panic("die")
	})
	if err := e.Run(); err == nil {
		t.Fatal("want error")
	}
	if blocked.state != Done || blocked.err != ErrAborted {
		t.Errorf("blocked thread state=%v err=%v, want done/ErrAborted", blocked.state, blocked.err)
	}
}

func TestSysTimeAccounting(t *testing.T) {
	e := NewEngine()
	th := e.Spawn("t", 0, func(th *Thread) {
		th.Advance(10 * Microsecond)
		th.AdvanceSys(5 * Microsecond)
		th.Idle(100 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if th.userTime() != 10*Microsecond || th.sys != 5*Microsecond {
		t.Errorf("user=%v sys=%v, want 10µs/5µs", th.userTime(), th.sys)
	}
	if th.Clock() != 115*Microsecond {
		t.Errorf("clock=%v, want 115µs", th.Clock())
	}
	if e.TotalSysTime() != 5*Microsecond {
		t.Errorf("TotalSysTime=%v, want 5µs", e.TotalSysTime())
	}
}

func TestSpawnFromThread(t *testing.T) {
	e := NewEngine()
	var inner *Thread
	e.Spawn("outer", 0, func(th *Thread) {
		th.Advance(10 * Microsecond)
		inner = e.Spawn("inner", th.Clock(), func(th2 *Thread) {
			th2.Advance(5 * Microsecond)
		})
		inner.Join(th)
		if th.Clock() != 15*Microsecond {
			t.Errorf("outer clock after join = %v, want 15µs", th.Clock())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", 0, func(th *Thread) { th.Advance(-1) })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want negative-advance panic", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestTraceHook(t *testing.T) {
	e := NewEngine()
	var sink simtrace.ListSink
	e.Bus = simtrace.NewBus()
	e.Bus.Attach(&sink)
	e.Spawn("a", 0, func(th *Thread) {
		th.Yield()
		th.Yield()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if switches := len(dispatchEvents(sink.Events())); switches != 3 {
		t.Errorf("switches = %d, want 3", switches)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	// Two threads with identical clocks must alternate in spawn order.
	e := NewEngine()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("t", 0, func(th *Thread) {
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2]", order)
		}
	}
}
