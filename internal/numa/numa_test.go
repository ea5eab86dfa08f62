package numa_test

import (
	"math/rand"
	"reflect"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// rig builds a small machine plus a manager driven by a mutable forced
// policy, and runs body inside a simulated thread.
func rig(t *testing.T, nproc int, body func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced)) {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 16
	m := ace.MustMachine(cfg)
	forced := &policy.Forced{Answer: numa.Local}
	n := numa.NewManager(m, forced)
	m.Engine().Spawn("test", 0, func(th *sim.Thread) {
		body(th, m, n, forced)
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	if numa.ReadOnly.String() != "read-only" ||
		numa.LocalWritable.String() != "local-writable" ||
		numa.GlobalWritable.String() != "global-writable" {
		t.Error("state strings wrong")
	}
	if numa.Local.String() != "LOCAL" || numa.Global.String() != "GLOBAL" {
		t.Error("location strings wrong")
	}
	if numa.HintCacheable.String() != "cacheable" || numa.HintNoncacheable.String() != "noncacheable" || numa.HintNone.String() != "none" {
		t.Error("hint strings wrong")
	}
}

func TestNewPageInitialState(t *testing.T) {
	rig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, _ *policy.Forced) {
		pg, err := n.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if pg.State() != numa.ReadOnly || pg.Owner() != -1 || pg.NCopies() != 0 {
			t.Errorf("fresh page state=%v owner=%d copies=%d", pg.State(), pg.Owner(), pg.NCopies())
		}
		if pg.Moves() != 0 || pg.Pinned() || pg.EverWritten() {
			t.Error("fresh page has history")
		}
		if pg.Authoritative() != pg.GlobalFrame() {
			t.Error("fresh page authority should be global frame")
		}
	})
}

func TestGlobalExhaustion(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, _ *policy.Forced) {
		for {
			if _, err := n.NewPage(); err != nil {
				return // exhausted as expected
			}
			if n.Stats().PagesCreated > 1000 {
				t.Fatal("global pool never exhausted")
			}
		}
	})
}

// transitionCase describes one cell of the paper's Table 1 or Table 2.
type transitionCase struct {
	name        string
	write       bool          // Table 2 if true, Table 1 if false
	decision    numa.Location // the policy row
	setup       string        // initial state: "ro-fresh", "ro-replicated", "gw", "lw-own", "lw-other"
	wantActions []string
	wantState   numa.State
	wantOwner   int // -2 = don't check
}

// buildState puts a fresh page into the named starting state, from the
// point of view of requesting processor 0 on a 3-CPU machine.
func buildState(th *sim.Thread, n *numa.Manager, forced *policy.Forced, setup string) *numa.Page {
	pg, err := n.NewPage()
	if err != nil {
		panic(err)
	}
	switch setup {
	case "ro-fresh":
		// nothing: zero-fill pending, no copies
	case "ro-replicated":
		// replicas on CPUs 1 and 2; content synced to global
		forced.Answer = numa.Local
		n.Access(th, pg, 1, false, mmu.ProtReadWrite)
		n.Access(th, pg, 2, false, mmu.ProtReadWrite)
	case "gw":
		forced.Answer = numa.Global
		n.Access(th, pg, 1, true, mmu.ProtReadWrite)
	case "lw-own":
		forced.Answer = numa.Local
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)
	case "lw-other":
		forced.Answer = numa.Local
		n.Access(th, pg, 1, true, mmu.ProtReadWrite)
	default:
		panic("bad setup " + setup)
	}
	return pg
}

// TestTable1ReadActions exhaustively verifies the LOCAL and GLOBAL rows of
// the paper's Table 1 (NUMA manager actions for read requests), deriving
// the actions from the implementation via the action hook (E3).
func TestTable1ReadActions(t *testing.T) {
	cases := []transitionCase{
		{"local/read-only", false, numa.Local, "ro-replicated",
			[]string{"copy to local"}, numa.ReadOnly, -1},
		{"local/global-writable", false, numa.Local, "gw",
			[]string{"unmap all", "copy to local"}, numa.ReadOnly, -1},
		{"local/lw-own", false, numa.Local, "lw-own",
			[]string{"no action"}, numa.LocalWritable, 0},
		{"local/lw-other", false, numa.Local, "lw-other",
			[]string{"sync&flush other", "copy to local"}, numa.ReadOnly, -1},
		{"global/read-only", false, numa.Global, "ro-replicated",
			[]string{"flush all"}, numa.GlobalWritable, -1},
		{"global/global-writable", false, numa.Global, "gw",
			[]string{"no action"}, numa.GlobalWritable, -1},
		{"global/lw-own", false, numa.Global, "lw-own",
			[]string{"sync&flush own"}, numa.GlobalWritable, -1},
		{"global/lw-other", false, numa.Global, "lw-other",
			[]string{"sync&flush other"}, numa.GlobalWritable, -1},
	}
	runTransitionCases(t, cases)
}

// TestTable2WriteActions exhaustively verifies the paper's Table 2 (NUMA
// manager actions for write requests) the same way (E4).
func TestTable2WriteActions(t *testing.T) {
	cases := []transitionCase{
		{"local/read-only", true, numa.Local, "ro-replicated",
			[]string{"flush other", "copy to local"}, numa.LocalWritable, 0},
		{"local/global-writable", true, numa.Local, "gw",
			[]string{"unmap all", "copy to local"}, numa.LocalWritable, 0},
		{"local/lw-own", true, numa.Local, "lw-own",
			[]string{"no action"}, numa.LocalWritable, 0},
		{"local/lw-other", true, numa.Local, "lw-other",
			[]string{"sync&flush other", "copy to local"}, numa.LocalWritable, 0},
		{"global/read-only", true, numa.Global, "ro-replicated",
			[]string{"flush all"}, numa.GlobalWritable, -1},
		{"global/global-writable", true, numa.Global, "gw",
			[]string{"no action"}, numa.GlobalWritable, -1},
		{"global/lw-own", true, numa.Global, "lw-own",
			[]string{"sync&flush own"}, numa.GlobalWritable, -1},
		{"global/lw-other", true, numa.Global, "lw-other",
			[]string{"sync&flush other"}, numa.GlobalWritable, -1},
	}
	runTransitionCases(t, cases)
}

func runTransitionCases(t *testing.T, cases []transitionCase) {
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
				pg := buildState(th, n, forced, c.setup)
				var trace simtrace.ListSink
				m.AttachSink(&trace)
				forced.Answer = c.decision
				frame, prot := n.Access(th, pg, 0, c.write, mmu.ProtReadWrite)
				m.AttachSink(nil) // flushes the buffered events into trace
				var actions []string
				for _, ev := range trace.Events() {
					if ev.Kind == simtrace.KindAction {
						actions = append(actions, ev.Label)
					}
				}

				if !reflect.DeepEqual(actions, c.wantActions) {
					t.Errorf("actions = %v, want %v", actions, c.wantActions)
				}
				if pg.State() != c.wantState {
					t.Errorf("state = %v, want %v", pg.State(), c.wantState)
				}
				if c.wantOwner != -2 && pg.Owner() != c.wantOwner {
					t.Errorf("owner = %d, want %d", pg.Owner(), c.wantOwner)
				}
				// The returned frame must match the new state.
				switch c.wantState {
				case numa.GlobalWritable:
					if frame != pg.GlobalFrame() {
						t.Errorf("frame = %v, want global", frame)
					}
					if pg.NCopies() != 0 {
						t.Errorf("global-writable page has %d copies", pg.NCopies())
					}
				default:
					if frame != numa.LocalCopy(pg, 0) {
						t.Errorf("frame = %v, want cpu0 local copy %v", frame, numa.LocalCopy(pg, 0))
					}
				}
				// Protection: reads resolve with the strictest permission
				// (read-only), writes with write permission (§2.3.3).
				if c.write && !prot.CanWrite() {
					t.Errorf("write request resolved with prot %v", prot)
				}
				if !c.write && c.decision == numa.Local && prot != mmu.ProtRead {
					t.Errorf("read request resolved with prot %v, want r--", prot)
				}
			})
		})
	}
}

func TestReadOnlyReplication(t *testing.T) {
	rig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		for p := 0; p < 3; p++ {
			f, prot := n.Access(th, pg, p, false, mmu.ProtReadWrite)
			if f.Kind().String() != "local" || f.Proc() != p {
				t.Errorf("cpu%d read mapped to %v", p, f)
			}
			if prot != mmu.ProtRead {
				t.Errorf("replica prot = %v", prot)
			}
		}
		if pg.NCopies() != 3 || pg.State() != numa.ReadOnly {
			t.Errorf("after 3 reads: copies=%d state=%v", pg.NCopies(), pg.State())
		}
	})
}

func TestWriteMigration(t *testing.T) {
	// A page written alternately by two processors migrates and counts
	// moves; content follows.
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		f0, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f0.Store32(0, 111)
		if pg.Moves() != 0 {
			t.Errorf("first write counted as a move")
		}
		f1, _ := n.Access(th, pg, 1, true, mmu.ProtReadWrite)
		if got := f1.Load32(0); got != 111 {
			t.Errorf("after migration cpu1 reads %d, want 111", got)
		}
		f1.Store32(0, 222)
		if pg.Moves() != 1 || pg.Owner() != 1 {
			t.Errorf("moves=%d owner=%d, want 1/1", pg.Moves(), pg.Owner())
		}
		f0b, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		if got := f0b.Load32(0); got != 222 {
			t.Errorf("after second migration cpu0 reads %d, want 222", got)
		}
		if pg.Moves() != 2 {
			t.Errorf("moves=%d, want 2", pg.Moves())
		}
	})
}

func TestReadThenWriteCountsMove(t *testing.T) {
	// A writes; B reads (page becomes read-only on B); B writes. The
	// ownership transfer A->B must be counted even though the copy arrived
	// during the read.
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		fa, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		fa.Store32(8, 7)
		fb, _ := n.Access(th, pg, 1, false, mmu.ProtReadWrite)
		if fb.Load32(8) != 7 {
			t.Error("read did not see writer's data")
		}
		if pg.Moves() != 0 {
			t.Error("read transfer must not count as a move")
		}
		n.Access(th, pg, 1, true, mmu.ProtReadWrite)
		if pg.Moves() != 1 {
			t.Errorf("moves = %d after read-then-write transfer, want 1", pg.Moves())
		}
	})
}

func TestUpgradeOwnPageNoMove(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)  // LW on 0
		n.Access(th, pg, 0, false, mmu.ProtReadWrite) // read own page
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)  // write again
		if pg.Moves() != 0 {
			t.Errorf("moves = %d for single-processor use, want 0", pg.Moves())
		}
	})
}

func TestPinTransition(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f.Store32(0, 5)
		forced.Answer = numa.Global
		g, prot := n.Access(th, pg, 1, true, mmu.ProtReadWrite)
		if g != pg.GlobalFrame() {
			t.Error("global decision did not map global frame")
		}
		if g.Load32(0) != 5 {
			t.Error("sync lost data on pin")
		}
		if !prot.CanWrite() {
			t.Error("pinned page should map writable")
		}
		if !pg.Pinned() || pg.State() != numa.GlobalWritable {
			t.Error("page not pinned")
		}
		if n.Stats().Pins != 1 {
			t.Errorf("pins = %d", n.Stats().Pins)
		}
	})
}

func TestLazyZeroFill(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		before := m.Engine().TotalSysTime()
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		elapsed := m.Engine().TotalSysTime() - before
		// One NUMA op plus a zero-fill at the local store's 840ns a word;
		// no global copy.
		want := m.Cost().NUMAOp + sim.Time(m.PageSize()/4)*840*sim.Nanosecond
		if elapsed != want {
			t.Errorf("first-touch cost = %v, want %v (zero directly into local memory)", elapsed, want)
		}
		if n.Stats().ZeroFills != 1 || n.Stats().Copies != 0 {
			t.Errorf("stats = %+v, want 1 zero-fill and no copies", n.Stats())
		}
	})
}

func TestZeroFillGlobalDecision(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		forced.Answer = numa.Global
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		if f != pg.GlobalFrame() {
			t.Fatal("not mapped global")
		}
		if n.Stats().ZeroFills != 1 {
			t.Error("zero-fill not charged on global first touch")
		}
		// Second access must not zero again.
		f.Store32(0, 3)
		n.Access(th, pg, 1, false, mmu.ProtReadWrite)
		if n.Stats().ZeroFills != 1 {
			t.Error("zero-fill charged twice")
		}
	})
}

func TestLocalPoolExhaustionReclaims(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 2 // tiny local memory
	m := ace.MustMachine(cfg)
	forced := &policy.Forced{Answer: numa.Local}
	n := numa.NewManager(m, forced)
	m.Engine().Spawn("test", 0, func(th *sim.Thread) {
		var pages []*numa.Page
		for i := 0; i < 4; i++ {
			pg, err := n.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, pg)
			n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		}
		// CPU0's two local frames went to the first two pages; the clock
		// reclaimer then evicted those cold copies (syncing them back to
		// global memory) so the later pages could still be placed locally.
		if pages[0].State() != numa.ReadOnly || pages[1].State() != numa.ReadOnly {
			t.Errorf("evicted pages should be read-only, got %v/%v",
				pages[0].State(), pages[1].State())
		}
		if pages[2].State() != numa.LocalWritable || pages[3].State() != numa.LocalWritable {
			t.Errorf("latest pages should be local, got %v/%v",
				pages[2].State(), pages[3].State())
		}
		if n.Stats().Evictions != 2 {
			t.Errorf("Evictions = %d, want 2", n.Stats().Evictions)
		}
		if n.Stats().LocalFallback != 0 {
			t.Errorf("LocalFallback = %d, want 0", n.Stats().LocalFallback)
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalPoolExhaustionFallsBack(t *testing.T) {
	// When every local frame holds a page the reclaimer refuses to evict
	// (remote home placements are sticky), the manager degrades gracefully:
	// the request is served from global memory and counted.
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 2
	m := ace.MustMachine(cfg)
	forced := &policy.Forced{Answer: numa.PlaceRemote}
	n := numa.NewManager(m, forced)
	m.Engine().Spawn("test", 0, func(th *sim.Thread) {
		for i := 0; i < 2; i++ {
			pg, err := n.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			pg.SetHome(0)
			n.Access(th, pg, 1, true, mmu.ProtReadWrite)
			if pg.State() != numa.Remote {
				t.Fatalf("page %d state = %v, want Remote", i, pg.State())
			}
		}
		// CPU0's local memory is full of sticky remote placements; a LOCAL
		// answer for a fresh page cannot be honoured.
		forced.Answer = numa.Local
		pg, err := n.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		if pg.State() != numa.GlobalWritable {
			t.Errorf("overflow page state = %v, want GlobalWritable", pg.State())
		}
		if n.Stats().LocalFallback != 1 {
			t.Errorf("LocalFallback = %d, want 1", n.Stats().LocalFallback)
		}
		if n.Stats().Evictions != 0 {
			t.Errorf("Evictions = %d, want 0", n.Stats().Evictions)
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFreePageReleasesEverything(t *testing.T) {
	rig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		n.Access(th, pg, 1, false, mmu.ProtReadWrite)
		globalFree := m.Memory().Global().Free()
		localFree0 := m.Memory().Local(0).Free()
		tag := n.FreePage(th, pg)
		n.FreePageSync(tag)
		if m.Memory().Global().Free() != globalFree+1 {
			t.Error("global frame not released")
		}
		if m.Memory().Local(0).Free() != localFree0+1 {
			t.Error("local copy not released")
		}
		if pg.Moves() != 0 || pg.Pinned() {
			t.Error("free did not reset placement state")
		}
	})
}

func TestFreePageSyncBadTagPanics(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		n.FreePageSync(nil)
	})
}

func TestPrepareEvict(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f.Store32(4, 99)
		n.PrepareEvict(th, pg)
		if pg.NCopies() != 0 {
			t.Error("copies survive eviction")
		}
		if pg.GlobalFrame().Load32(4) != 99 {
			t.Error("dirty data lost on eviction")
		}
		if pg.Authoritative() != pg.GlobalFrame() {
			t.Error("global frame should be authoritative after evict")
		}
	})
}

func TestAdoptPageSkipsZeroFill(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		g, err := m.Memory().Global().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		g.Store32(0, 42)
		pg := n.AdoptPage(g)
		f, _ := n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		if f.Load32(0) != 42 {
			t.Error("adopted page lost its contents (zero-fill should not be pending)")
		}
		if n.Stats().ZeroFills != 0 {
			t.Error("adopt should not zero-fill")
		}
	})
}

func TestEverWritten(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		if pg.EverWritten() {
			t.Error("read marked page written")
		}
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		if !pg.EverWritten() {
			t.Error("write did not mark page written")
		}
	})
}

func TestHints(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		if pg.Hint() != numa.HintNone {
			t.Error("default hint")
		}
		pg.SetHint(numa.HintNoncacheable)
		if pg.Hint() != numa.HintNoncacheable {
			t.Error("hint not stored")
		}
	})
}

func TestNilPolicyPanics(t *testing.T) {
	m := ace.MustMachine(ace.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	numa.NewManager(m, nil)
}

func TestWriteWithoutWritePermPanics(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		n.Access(th, pg, 0, true, mmu.ProtRead)
	})
}

// TestCoherenceProperty drives a long random mix of reads and writes from
// several processors through the protocol under each policy, checking
// after every operation that the value read matches a flat reference
// array. This is the key safety property: migration, replication, pinning
// and sync/flush must never lose or reorder data.
func TestCoherenceProperty(t *testing.T) {
	policies := map[string]numa.Policy{
		"threshold(4)": policy.NewDefault(),
		"threshold(0)": policy.NewThreshold(0),
		"never-pin":    policy.NeverPin(),
		"all-global":   policy.AllGlobal{},
		"all-local":    policy.AllLocal{},
	}
	for name, pol := range policies {
		pol := pol
		t.Run(name, func(t *testing.T) {
			cfg := ace.DefaultConfig()
			cfg.NProc = 4
			cfg.GlobalFrames = 8
			cfg.LocalFrames = 8
			m := ace.MustMachine(cfg)
			n := numa.NewManager(m, pol)
			rng := rand.New(rand.NewSource(12345))
			m.Engine().Spawn("driver", 0, func(th *sim.Thread) {
				const npages = 4
				wordsPerPage := m.PageSize() / 4
				pages := make([]*numa.Page, npages)
				for i := range pages {
					var err error
					pages[i], err = n.NewPage()
					if err != nil {
						t.Fatal(err)
					}
				}
				ref := make([]uint32, npages*wordsPerPage)
				for step := 0; step < 3000; step++ {
					pi := rng.Intn(npages)
					word := rng.Intn(wordsPerPage)
					proc := rng.Intn(cfg.NProc)
					write := rng.Intn(2) == 0
					f, prot := n.Access(th, pages[pi], proc, write, mmu.ProtReadWrite)
					if write {
						if !prot.CanWrite() {
							t.Fatalf("step %d: write resolved read-only", step)
						}
						v := rng.Uint32()
						f.Store32(word*4, v)
						ref[pi*wordsPerPage+word] = v
					} else {
						got := f.Load32(word * 4)
						if want := ref[pi*wordsPerPage+word]; got != want {
							t.Fatalf("step %d (policy %s): cpu%d page %d word %d = %d, want %d",
								step, pol.Name(), proc, pi, word, got, want)
						}
					}
				}
			})
			if err := m.Engine().Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInvariants drives random traffic and checks the protocol's structural
// invariants after every step.
func TestInvariants(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 4
	cfg.GlobalFrames = 16
	cfg.LocalFrames = 4
	m := ace.MustMachine(cfg)
	n := numa.NewManager(m, policy.NewThreshold(2))
	rng := rand.New(rand.NewSource(99))
	m.Engine().Spawn("driver", 0, func(th *sim.Thread) {
		var pages []*numa.Page
		for i := 0; i < 6; i++ {
			pg, err := n.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, pg)
		}
		for step := 0; step < 2000; step++ {
			pg := pages[rng.Intn(len(pages))]
			proc := rng.Intn(cfg.NProc)
			write := rng.Intn(3) == 0
			n.Access(th, pg, proc, write, mmu.ProtReadWrite)
			switch pg.State() {
			case numa.ReadOnly:
				if pg.Owner() != -1 {
					t.Fatalf("step %d: read-only page has owner %d", step, pg.Owner())
				}
			case numa.LocalWritable:
				if pg.Owner() < 0 || pg.NCopies() != 1 || numa.LocalCopy(pg, pg.Owner()) == nil {
					t.Fatalf("step %d: local-writable page owner=%d copies=%d", step, pg.Owner(), pg.NCopies())
				}
			case numa.GlobalWritable:
				if pg.NCopies() != 0 || pg.Owner() != -1 {
					t.Fatalf("step %d: global-writable page has copies/owner", step)
				}
				if !pg.Pinned() {
					t.Fatalf("step %d: global-writable page not pinned under threshold policy", step)
				}
			}
			if pg.Moves() > 0 && pg.State() == numa.GlobalWritable && pg.Moves() < 2 {
				t.Fatalf("step %d: pinned before threshold", step)
			}
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemTimeCharged verifies that protocol work is charged as system
// time, not user time (§3.3 measures them separately).
func TestSystemTimeCharged(t *testing.T) {
	rig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager, forced *policy.Forced) {
		pg, _ := n.NewPage()
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		n.Access(th, pg, 1, true, mmu.ProtReadWrite) // sync + copy
		if m.Engine().TotalUserTime() != 0 {
			t.Errorf("protocol charged %v as user time", m.Engine().TotalUserTime())
		}
		if m.Engine().TotalSysTime() == 0 {
			t.Error("protocol charged no system time")
		}
		// The migration must include a page copy each way at memory speed:
		// at least a global fetch and a global store (1500ns + 1400ns) a word.
		minCost := sim.Time(m.PageSize()/4) * (1500*sim.Nanosecond + 1400*sim.Nanosecond)
		if m.Engine().TotalSysTime() < minCost {
			t.Errorf("sys time %v implausibly small (< one page copy %v)", m.Engine().TotalSysTime(), minCost)
		}
	})
}
