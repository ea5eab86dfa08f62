package vm_test

import (
	"errors"
	"math/rand"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

func smallCfg(nproc int) ace.Config {
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 32
	return cfg
}

// run1 runs body in a single simulated thread on cpu0.
func run1(t *testing.T, cfg ace.Config, pol numa.Policy, body func(c *vm.Context)) *vm.Kernel {
	t.Helper()
	machine := ace.MustMachine(cfg)
	if pol == nil {
		pol = policy.NewDefault()
	}
	k := vm.NewKernel(machine, pol)
	task := k.NewTask()
	machine.Engine().Spawn("main", 0, func(th *sim.Thread) {
		body(vm.NewContext(k, task, th, 0))
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestZeroFillAndRoundTrip(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		base := c.Task().Allocate("data", 8192, mmu.ProtReadWrite)
		if got := c.Load32(base); got != 0 {
			t.Errorf("fresh page reads %d, want 0", got)
		}
		c.Store32(base+4, 42)
		c.Store32(base+4096, 43) // second page
		if c.Load32(base+4) != 42 || c.Load32(base+4096) != 43 {
			t.Error("round trip failed")
		}
		c.Store8(base+9, 0xab)
		if c.Load8(base+9) != 0xab {
			t.Error("byte round trip failed")
		}
		c.Store64(base+16, 1<<40)
		if c.Load64(base+16) != 1<<40 {
			t.Error("64-bit round trip failed")
		}
		c.StoreF64(base+24, 3.25)
		if c.LoadF64(base+24) != 3.25 {
			t.Error("float round trip failed")
		}
	})
}

func TestGuardPageFaults(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		base := c.Task().Allocate("small", 4096, mmu.ProtReadWrite)
		defer func() {
			r := recover()
			ae, ok := r.(*vm.AccessError)
			if !ok {
				t.Fatalf("recover = %v, want AccessError", r)
			}
			if !errors.Is(ae, vm.ErrNoMapping) {
				t.Errorf("err = %v, want ErrNoMapping", ae)
			}
		}()
		c.Load32(base + 4096) // one past the end: guard page
	})
}

func TestProtectionViolation(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		base := c.Task().Allocate("ro", 4096, mmu.ProtRead)
		if c.Load32(base) != 0 {
			t.Error("read of read-only region failed")
		}
		defer func() {
			r := recover()
			ae, ok := r.(*vm.AccessError)
			if !ok || !errors.Is(ae, vm.ErrProtection) {
				t.Fatalf("recover = %v, want protection AccessError", r)
			}
			if !ae.Write {
				t.Error("error should record a write")
			}
		}()
		c.Store32(base, 1)
	})
}

func TestSharedObjectAcrossTasks(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewDefault())
	ta := k.NewTask()
	tb := k.NewTask()
	obj := k.NewObject("shared", 4096)
	vaA := ta.Map(obj, 0, 4096, mmu.ProtReadWrite)
	vaB := tb.Map(obj, 0, 4096, mmu.ProtReadWrite)
	done := make(chan struct{}, 1)
	machine.Engine().Spawn("a", 0, func(th *sim.Thread) {
		ca := vm.NewContext(k, ta, th, 0)
		ca.Store32(vaA+8, 77)
	})
	machine.Engine().Spawn("b", 1, func(th *sim.Thread) {
		cb := vm.NewContext(k, tb, th, 1)
		if got := cb.Load32(vaB + 8); got != 77 {
			t.Errorf("task b reads %d, want 77", got)
		}
		done <- struct{}{}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestMigrationBetweenProcessors(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewDefault())
	task := k.NewTask()
	base := task.Allocate("shared", 4096, mmu.ProtReadWrite)
	var w0 *sim.Thread
	w0 = machine.Engine().Spawn("w0", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 0)
		c.Store32(base, 1)
	})
	machine.Engine().Spawn("w1", 0, func(th *sim.Thread) {
		w0.Join(th)
		c := vm.NewContext(k, task, th, 1)
		if c.Load32(base) != 1 {
			t.Error("cpu1 does not see cpu0's write")
		}
		c.Store32(base, 2)
		pg := task.EntryAt(base).Object().Page(0)
		if pg.State() != numa.LocalWritable || pg.Owner() != 1 {
			t.Errorf("page state %v owner %d, want LW on 1", pg.State(), pg.Owner())
		}
		if pg.Moves() != 1 {
			t.Errorf("moves = %d, want 1", pg.Moves())
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdPinsViaContexts(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewThreshold(2))
	task := k.NewTask()
	base := task.Allocate("pingpong", 4096, mmu.ProtReadWrite)
	machine.Engine().Spawn("driver", 0, func(th *sim.Thread) {
		c0 := vm.NewContext(k, task, th, 0)
		for i := 0; i < 3; i++ {
			c0.MigrateTo(0)
			c0.Store32(base, uint32(i))
			c0.MigrateTo(1)
			c0.Store32(base+4, uint32(i))
		}
		pg := task.EntryAt(base).Object().Page(0)
		if !pg.Pinned() || pg.State() != numa.GlobalWritable {
			t.Errorf("ping-ponged page not pinned: state %v moves %d", pg.State(), pg.Moves())
		}
		// Data still correct in global memory.
		if c0.Load32(base) != 2 || c0.Load32(base+4) != 2 {
			t.Error("data lost on pinning")
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPageoutResetsPin is E10: a pinned page that is paged out and back in
// starts with fresh placement state — the only occasion the paper's system
// reconsiders a pinning decision (§4.3 footnote 4).
func TestPageoutResetsPin(t *testing.T) {
	cfg := smallCfg(2)
	cfg.GlobalFrames = 4 // tiny global memory forces pageout
	machine := ace.MustMachine(cfg)
	k := vm.NewKernel(machine, policy.NewThreshold(1))
	task := k.NewTask()
	hot := task.Allocate("hot", 4096, mmu.ProtReadWrite)
	filler := task.Allocate("filler", 4*4096, mmu.ProtReadWrite)
	machine.Engine().Spawn("main", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 0)
		// Pin the hot page by ping-ponging writes: the move during the
		// second write reaches the threshold, and the third write finds the
		// page over the limit and pins it.
		c.Store32(hot, 11)
		c.MigrateTo(1)
		c.Store32(hot, 22)
		c.MigrateTo(0)
		c.Store32(hot, 22)
		pg := task.EntryAt(hot).Object().Page(0)
		if !pg.Pinned() {
			t.Fatal("setup: page should be pinned")
		}
		// Touch filler pages until the hot page is evicted.
		for i := uint32(0); i < 4; i++ {
			c.Store32(filler+i*4096, i)
		}
		if task.EntryAt(hot).Object().Page(0) != nil {
			t.Fatal("hot page was not paged out")
		}
		if k.Stats().Pageouts == 0 {
			t.Fatal("no pageout counted")
		}
		// Touch it again: pagein with fresh state.
		if got := c.Load32(hot); got != 22 {
			t.Errorf("paged-in data = %d, want 22", got)
		}
		pg2 := task.EntryAt(hot).Object().Page(0)
		if pg2 == nil {
			t.Fatal("pagein did not restore page")
		}
		if pg2.Pinned() || pg2.Moves() != 0 {
			t.Error("pagein did not reset placement state")
		}
		if pg2.State() == numa.GlobalWritable {
			t.Error("paged-in page should be cacheable again")
		}
		if k.Stats().Pageins == 0 {
			t.Error("no pagein counted")
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBackingStoreChargesFaultingRow: a pageout and a pagein are priced
// from the faulting processor's charge row, like every page transfer. On
// mesh8 each processor pays its own price for the interleaved global
// memory: processor 5 pays 1,235 ns a fetch and 1,596 ns a store,
// processor 0 1,430 and 1,848 ns. With the fault, NUMA and MMU costs
// zeroed and every page in global memory, the system time of each of
// processor 5's faults is its page transfers alone: a store a word for a
// zero-fill or a pagein, a fetch a word for a pageout.
func TestBackingStoreChargesFaultingRow(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc, cfg.Topology = 8, "mesh8"
	cfg.GlobalFrames, cfg.LocalFrames = 2, 4 // the third page forces a pageout
	cfg.Cost.FaultBase, cfg.Cost.NUMAOp, cfg.Cost.MMUOp = 0, 0, 0
	machine := ace.MustMachine(cfg)
	k := vm.NewKernel(machine, policy.AllGlobal{})
	task := k.NewTask()
	ps := uint32(cfg.PageSize)
	base := task.Allocate("pages", 3*ps, mmu.ProtReadWrite)
	words := sim.Time(cfg.PageSize / 4)
	const fetch, store = 1235 * sim.Nanosecond, 1596 * sim.Nanosecond
	machine.Engine().Spawn("main", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 5)
		for _, step := range []struct {
			name  string
			touch func()
			want  sim.Time
		}{
			{"zero-fill page 0", func() { c.Store32(base, 7) }, words * store},
			{"zero-fill page 1", func() { c.Store32(base+ps, 8) }, words * store},
			{"page 0 out, zero-fill page 2", func() { c.Store32(base+2*ps, 9) }, words * (fetch + store)},
			{"page 1 out, page 0 in", func() {
				if got := c.Load32(base); got != 7 {
					t.Errorf("paged-in word = %d, want 7", got)
				}
			}, words * (fetch + store)},
		} {
			before := machine.Engine().TotalSysTime()
			step.touch()
			if got := machine.Engine().TotalSysTime() - before; got != step.want {
				t.Errorf("%s: system time %v, want %v", step.name, got, step.want)
			}
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.Pageouts != 2 || st.Pageins != 1 {
		t.Errorf("%d pageouts and %d pageins, want 2 and 1", st.Pageouts, st.Pageins)
	}
}

func TestPragmaHint(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewPragma(nil))
	task := k.NewTask()
	base := task.Allocate("noncache", 4096, mmu.ProtReadWrite)
	task.SetHint(base, numa.HintNoncacheable)
	machine.Engine().Spawn("main", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 0)
		c.Store32(base, 1)
		pg := task.EntryAt(base).Object().Page(0)
		if pg.State() != numa.GlobalWritable {
			t.Errorf("noncacheable page state = %v, want global-writable", pg.State())
		}
		if pg.Hint() != numa.HintNoncacheable {
			t.Error("hint not propagated to page")
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPragmaSurvivesPageout: a region's pragma applies to its pages
// however they become resident, so a noncacheable page that is paged out
// and read back in stays noncacheable in global memory instead of being
// cached as a local replica.
func TestPragmaSurvivesPageout(t *testing.T) {
	cfg := smallCfg(2)
	cfg.GlobalFrames = 4 // tiny global memory forces pageout
	machine := ace.MustMachine(cfg)
	k := vm.NewKernel(machine, policy.NewPragma(nil))
	task := k.NewTask()
	base := task.Allocate("noncache", 4096, mmu.ProtReadWrite)
	task.SetHint(base, numa.HintNoncacheable)
	filler := task.Allocate("filler", 4*4096, mmu.ProtReadWrite)
	machine.Engine().Spawn("main", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 0)
		c.Store32(base, 5)
		for i := uint32(0); i < 4; i++ {
			c.Store32(filler+i*4096, i)
		}
		if task.EntryAt(base).Object().Page(0) != nil {
			t.Fatal("setup: the noncacheable page was not paged out")
		}
		if got := c.Load32(base); got != 5 {
			t.Errorf("paged-in word = %d, want 5", got)
		}
		pg := task.EntryAt(base).Object().Page(0)
		if pg.Hint() != numa.HintNoncacheable || pg.State() != numa.GlobalWritable || pg.NCopies() != 0 {
			t.Errorf("paged-in page has hint %v, state %v and %d local copies; want noncacheable, global-writable and none",
				pg.Hint(), pg.State(), pg.NCopies())
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Pageins != 1 {
		t.Errorf("%d pageins, want 1", k.Stats().Pageins)
	}
}

// TestUnixMasterSharing is E12: with the Unix-master mode on, system calls
// that touch user memory run on processor 0, dragging otherwise-private
// pages into sharing with the master processor.
func TestUnixMasterSharing(t *testing.T) {
	for _, master := range []bool{false, true} {
		machine := ace.MustMachine(smallCfg(3))
		k := vm.NewKernel(machine, policy.NewThreshold(1))
		k.UnixMaster = master
		task := k.NewTask()
		stack := task.Allocate("stack", 4096, mmu.ProtReadWrite)
		machine.Engine().Spawn("w", 0, func(th *sim.Thread) {
			c := vm.NewContext(k, task, th, 2)
			for i := 0; i < 4; i++ {
				c.Store32(stack, uint32(i))
				c.Syscall(100, stack) // e.g. sigvec reading the user stack
			}
		})
		if err := machine.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		r0 := machine.Proc(0).Refs()
		if master && r0.Total() == 0 {
			t.Error("unix-master syscalls made no references from cpu0")
		}
		if !master && r0.Total() != 0 {
			t.Error("without unix-master, cpu0 should be idle")
		}
	}
}

func TestQuantumHook(t *testing.T) {
	cfg := smallCfg(2)
	cfg.Quantum = 10 * sim.Microsecond
	machine := ace.MustMachine(cfg)
	k := vm.NewKernel(machine, policy.NewDefault())
	task := k.NewTask()
	var fired int
	machine.Engine().Spawn("w", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 0)
		c.OnQuantum = func(*vm.Context) { fired++ }
		c.Compute(1000) // 500µs of work at 0.5µs/instr
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Error("quantum hook never fired")
	}
}

func TestAllocationAlignmentAndGuards(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewDefault())
	task := k.NewTask()
	a := task.Allocate("a", 100, mmu.ProtReadWrite) // rounds to one page
	b := task.Allocate("b", 4097, mmu.ProtReadWrite)
	if a%4096 != 0 || b%4096 != 0 {
		t.Error("allocations not page aligned")
	}
	if b < a+4096+4096 {
		t.Error("no guard page between regions")
	}
	e := task.EntryAt(b)
	if e.Start() != b || e.End() != b+8192 {
		t.Errorf("entry spans [%#x, %#x), want [%#x, %#x)", e.Start(), e.End(), b, b+8192)
	}
	if task.EntryAt(a+4096) != nil {
		t.Error("guard page should not be mapped")
	}
}

func TestBadMapsPanic(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewDefault())
	task := k.NewTask()
	obj := k.NewObject("o", 4096)
	for name, fn := range map[string]func(){
		"unaligned offset": func() { task.Map(obj, 100, 4096, mmu.ProtRead) },
		"zero length":      func() { task.Map(obj, 0, 0, mmu.ProtRead) },
		"beyond object":    func() { task.Map(obj, 0, 8192, mmu.ProtRead) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSyscallStaysOnProcWithoutMaster(t *testing.T) {
	machine := ace.MustMachine(smallCfg(2))
	k := vm.NewKernel(machine, policy.NewDefault())
	task := k.NewTask()
	base := task.Allocate("d", 4096, mmu.ProtReadWrite)
	machine.Engine().Spawn("w", 0, func(th *sim.Thread) {
		c := vm.NewContext(k, task, th, 1)
		c.Store32(base, 1)
		before := machine.Engine().TotalSysTime()
		c.Syscall(10, base)
		if machine.Engine().TotalSysTime() <= before {
			t.Error("syscall charged no system time")
		}
		if c.Proc() != 1 {
			t.Error("syscall did not return to home processor")
		}
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCoherence runs several threads hammering a shared region
// through the full VM stack and checks reads against a reference array
// maintained at synchronization points.
func TestConcurrentCoherence(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Quantum = 50 * sim.Microsecond
	machine := ace.MustMachine(cfg)
	k := vm.NewKernel(machine, policy.NewThreshold(3))
	task := k.NewTask()
	const words = 256
	base := task.Allocate("shared", words*4, mmu.ProtReadWrite)

	// Each thread owns a disjoint slice of words, so every value is
	// single-writer and reads have deterministic expectations even under
	// arbitrary interleaving; pages are still writably shared.
	for p := 0; p < 4; p++ {
		p := p
		machine.Engine().Spawn("w", 0, func(th *sim.Thread) {
			c := vm.NewContext(k, task, th, p)
			rng := rand.New(rand.NewSource(int64(p)))
			mine := make(map[uint32]uint32)
			for i := 0; i < 400; i++ {
				w := uint32(p + 4*rng.Intn(words/4)) // stride-4 ownership
				va := base + w*4
				if rng.Intn(2) == 0 {
					v := rng.Uint32()
					c.Store32(va, v)
					mine[va] = v
				} else if want, ok := mine[va]; ok {
					if got := c.Load32(va); got != want {
						t.Errorf("cpu%d: word %#x = %d, want %d", p, va, got, want)
					}
				}
			}
		})
	}
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	refs := machine.TotalRefs()
	if refs.Total() == 0 {
		t.Fatal("no references recorded")
	}
}
