package sched_test

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

func newKernel(nproc int) *vm.Kernel {
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 32
	return vm.NewKernel(ace.MustMachine(cfg), policy.NewDefault())
}

func TestSequentialAssignment(t *testing.T) {
	k := newKernel(4)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask()
	var procs []int
	for i := 0; i < 4; i++ {
		s.Spawn("w", task, 0, func(c *vm.Context) {
			procs = append(procs, c.Proc())
			c.Compute(1000) // stay alive so later spawns see the CPU busy
		})
	}
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i, p := range procs {
		if p != want[i] {
			t.Errorf("spawn %d on cpu%d, want cpu%d (sequential assignment)", i, p, want[i])
		}
	}
}

func TestReuseAfterExit(t *testing.T) {
	k := newKernel(2)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask()
	var first *sim.Thread
	first = s.Spawn("a", task, 0, func(c *vm.Context) { c.Compute(1) })
	var secondProc int
	k.Machine().Engine().Spawn("driver", 0, func(th *sim.Thread) {
		first.Join(th)
		// After a exits, cpu0 is free again and should be reused.
		w := s.Spawn("b", task, th.Clock(), func(c *vm.Context) {
			secondProc = c.Proc()
		})
		w.Join(th)
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if sched.Live(s, 0) != 0 || sched.Live(s, 1) != 0 {
		t.Errorf("live counts not drained: %d %d", sched.Live(s, 0), sched.Live(s, 1))
	}
	_ = secondProc // assignment rule is round-robin over free CPUs; b may take 0 or 1
}

// TestMigrateHint covers the explicit migration API: an accepted hint
// moves the thread to the target node at its next quantum boundary, the
// per-thread home-node accounting follows, and the stats ledger
// reconciles with what the caller observed.
func TestMigrateHint(t *testing.T) {
	k := newKernel(4)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask()
	var before, after int
	var th *sim.Thread
	th = s.Spawn("w", task, 0, func(c *vm.Context) {
		before = c.Proc()
		if !s.MigrateHint(th, 2) {
			t.Error("in-range hint on an affinity scheduler rejected")
		}
		c.Compute(20000) // cross a quantum boundary so the hint applies
		after = c.Proc()
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if home := k.Machine().Home(before); home == 2 {
		t.Fatalf("test setup: thread spawned on the target node")
	}
	if home := k.Machine().Home(after); home != 2 {
		t.Errorf("after an accepted hint the thread runs on node %d, want 2", home)
	}
	st := s.Stats()
	if st.HintsAccepted != 1 || st.Migrations != 1 {
		t.Errorf("stats = %+v, want 1 accepted hint and 1 migration", st)
	}
}

// TestMigrateHintRejections checks the rejection cases: out-of-range
// nodes, untracked threads, and any hint on a no-affinity scheduler.
func TestMigrateHintRejections(t *testing.T) {
	k := newKernel(2)
	s := sched.New(k, sched.Affinity)
	task := k.NewTask()
	var th *sim.Thread
	th = s.Spawn("w", task, 0, func(c *vm.Context) {
		if s.MigrateHint(th, -1) || s.MigrateHint(th, 99) {
			t.Error("out-of-range node accepted")
		}
		// A hint for the node the thread already lives on is accepted
		// but clears any pending move.
		if !s.MigrateHint(th, k.Machine().Home(c.Proc())) {
			t.Error("same-node hint rejected")
		}
		c.Compute(1000)
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.HintsRejected != 2 {
		t.Errorf("HintsRejected = %d, want 2", st.HintsRejected)
	}
	if st.Migrations != 0 {
		t.Errorf("Migrations = %d, want 0 (same-node hint must not move)", st.Migrations)
	}

	k2 := newKernel(2)
	s2 := sched.New(k2, sched.NoAffinity)
	task2 := k2.NewTask()
	var th2 *sim.Thread
	th2 = s2.Spawn("w", task2, 0, func(c *vm.Context) {
		if s2.MigrateHint(th2, 1) {
			t.Error("no-affinity scheduler accepted a hint")
		}
		c.Compute(1000)
	})
	if err := k2.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().HintsRejected; got != 1 {
		t.Errorf("no-affinity HintsRejected = %d, want 1", got)
	}
}

// TestFailoverSpreadsByLiveCounts fails node 0 of an 8-processor
// 4socket, which homes cpu0 and cpu4 there. Both threads fail over to
// node 1, whose cpu1 and cpu5 run one thread each, and the live counts
// must follow the first move so the second lands on the other processor.
func TestFailoverSpreadsByLiveCounts(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc, cfg.Topology = 8, "4socket"
	cfg.GlobalFrames, cfg.LocalFrames = 64, 32
	k := vm.NewKernel(ace.MustMachine(cfg), policy.NewDefault())
	s := sched.New(k, sched.Affinity)
	task := k.NewTask()
	end := make([]int, cfg.NProc)
	for i := range end {
		s.Spawn("w", task, 0, func(c *vm.Context) {
			for range 4 {
				c.Compute(1000) // each call ends a quantum
			}
			end[i] = c.Proc()
			if i == 0 && (sched.Live(s, 0) != 0 || sched.Live(s, end[0]) == 0) {
				t.Errorf("after failover cpu0 counts %d threads and cpu%d %d",
					sched.Live(s, 0), end[0], sched.Live(s, end[0]))
			}
		})
	}
	s.FailNode(0)
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4} {
		if home := k.Machine().Home(end[i]); home != 1 {
			t.Errorf("thread from cpu%d ended on cpu%d of node %d, want node 1", i, end[i], home)
		}
	}
	if end[0] == end[4] {
		t.Errorf("both failed-over threads ended on cpu%d; cpu%d runs one thread less", end[0], 6-end[0])
	}
	for p := range cfg.NProc {
		if sched.Live(s, p) != 0 {
			t.Errorf("cpu%d still counts %d live threads", p, sched.Live(s, p))
		}
	}
}

// TestHopMovesLiveCount requires a no-affinity hop to move the thread's
// live count with it.
func TestHopMovesLiveCount(t *testing.T) {
	k := newKernel(2)
	s := sched.New(k, sched.NoAffinity)
	task := k.NewTask()
	s.Spawn("w", task, 0, func(c *vm.Context) {
		for range 3 {
			c.Compute(1000) // each call ends a quantum, and the thread hops
			if sched.Live(s, c.Proc()) != 1 || sched.Live(s, 1-c.Proc()) != 0 {
				t.Errorf("on cpu%d: live counts %d %d", c.Proc(), sched.Live(s, 0), sched.Live(s, 1))
			}
		}
	})
	if err := k.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if sched.Live(s, 0) != 0 || sched.Live(s, 1) != 0 {
		t.Errorf("live counts not drained: %d %d", sched.Live(s, 0), sched.Live(s, 1))
	}
}
