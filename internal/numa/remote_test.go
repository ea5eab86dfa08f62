package numa_test

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mem"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
)

// remoteRig builds a machine with a pragma policy, so HintRemote pages are
// placed at their home processor (§4.4).
func remoteRig(t *testing.T, nproc int, body func(th *sim.Thread, m *ace.Machine, n *numa.Manager)) {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 16
	m := ace.MustMachine(cfg)
	n := numa.NewManager(m, policy.NewPragma(nil))
	m.Engine().Spawn("test", 0, func(th *sim.Thread) { body(th, m, n) })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemotePlacement(t *testing.T) {
	remoteRig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager) {
		pg, _ := n.NewPage()
		pg.SetHint(numa.HintRemote)
		pg.SetHome(1)
		f, prot := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		if pg.State() != numa.Remote {
			t.Fatalf("state = %v, want remote", pg.State())
		}
		if f != numa.LocalCopy(pg, 1) || f.Proc() != 1 {
			t.Errorf("frame = %v, want cpu1's local frame", f)
		}
		if !prot.CanWrite() {
			t.Error("remote page should map writable")
		}
		if pg.Authoritative() != f {
			t.Error("home copy should be authoritative")
		}
		// A second access from another processor is a no-action hit on the
		// same frame.
		f2, _ := n.Access(th, pg, 2, false, mmu.ProtReadWrite)
		if f2 != f {
			t.Error("all processors must share the home frame")
		}
		if pg.NCopies() != 1 {
			t.Errorf("copies = %d, want exactly the home copy", pg.NCopies())
		}
		if n.Stats().RemotePlaced != 1 {
			t.Errorf("RemotePlaced = %d", n.Stats().RemotePlaced)
		}
	})
}

func TestRemoteAccessCosts(t *testing.T) {
	remoteRig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager) {
		pg, _ := n.NewPage()
		pg.SetHint(numa.HintRemote)
		pg.SetHome(0)
		f, _ := n.Access(th, pg, 1, true, mmu.ProtReadWrite)
		// Home accesses are local, others remote.
		charged := func(charge func()) sim.Time {
			before := m.Engine().TotalUserTime()
			charge()
			return m.Engine().TotalUserTime() - before
		}
		// The ACE routes no column, so each row charge is the whole cost.
		if got := charged(func() { m.Proc(0).Row().Fetch(th, f) }); got != 650*sim.Nanosecond {
			t.Errorf("home fetch cost %v, want the local 650ns", got)
		}
		if got := charged(func() { m.Proc(1).Row().Fetch(th, f) }); got != 1800*sim.Nanosecond {
			t.Errorf("other fetch cost %v, want the remote 1800ns", got)
		}
		if got := charged(func() { m.Proc(1).Row().Store(th, f) }); got != 1700*sim.Nanosecond {
			t.Errorf("other store cost %v, want the remote 1700ns", got)
		}
	})
}

func TestRemotePreservesData(t *testing.T) {
	remoteRig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager) {
		pg, _ := n.NewPage()
		// Establish data while the page migrates normally.
		f0, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f0.Store32(0, 321)
		// Now hint it remote at cpu2.
		pg.SetHint(numa.HintRemote)
		pg.SetHome(2)
		f, _ := n.Access(th, pg, 1, false, mmu.ProtReadWrite)
		if f.Load32(0) != 321 {
			t.Error("remote placement lost data")
		}
		f.Store32(0, 654)
		// Demote by clearing the hint: next access syncs home copy back.
		pg.SetHint(numa.HintNone)
		g, _ := n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		if g.Load32(0) != 654 {
			t.Errorf("demotion lost data: %d", g.Load32(0))
		}
		if pg.State() == numa.Remote {
			t.Error("page still remote after hint cleared")
		}
		if n.Stats().RemoteDemoted != 1 {
			t.Errorf("RemoteDemoted = %d", n.Stats().RemoteDemoted)
		}
	})
}

func TestRemoteFromEachState(t *testing.T) {
	states := []string{"fresh", "replicated", "lw-home", "lw-other", "global"}
	for _, setup := range states {
		setup := setup
		t.Run(setup, func(t *testing.T) {
			remoteRig(t, 3, func(th *sim.Thread, m *ace.Machine, n *numa.Manager) {
				pg, _ := n.NewPage()
				var want uint32
				prep := func(proc int, write bool, v uint32) {
					f, _ := n.Access(th, pg, proc, write, mmu.ProtReadWrite)
					if write {
						f.Store32(4, v)
						want = v
					}
				}
				switch setup {
				case "fresh":
				case "replicated":
					prep(0, true, 7)
					prep(1, false, 0)
					prep(2, false, 0)
				case "lw-home":
					prep(1, true, 9)
				case "lw-other":
					prep(0, true, 11)
				case "global":
					// ping-pong past the default threshold of the pragma
					// fallback policy
					for i := uint32(0); i < 6; i++ {
						prep(int(i%2), true, 100+i)
					}
					if pg.State() != numa.GlobalWritable {
						t.Fatalf("setup: state %v, want global-writable", pg.State())
					}
				}
				pg.SetHint(numa.HintRemote)
				pg.SetHome(1)
				f, _ := n.Access(th, pg, 0, false, mmu.ProtReadWrite)
				if pg.State() != numa.Remote {
					t.Fatalf("state = %v, want remote", pg.State())
				}
				if f.Proc() != 1 || f.Kind() != mem.Local {
					t.Errorf("frame %v not at home", f)
				}
				if got := f.Load32(4); got != want {
					t.Errorf("data = %d, want %d", got, want)
				}
				if pg.NCopies() != 1 {
					t.Errorf("copies = %d, want 1", pg.NCopies())
				}
			})
		})
	}
}

func TestRemoteWithoutHomeFallsBackGlobal(t *testing.T) {
	remoteRig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager) {
		pg, _ := n.NewPage()
		pg.SetHint(numa.HintRemote) // no SetHome
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		if f != pg.GlobalFrame() || pg.State() != numa.GlobalWritable {
			t.Errorf("remote without home should fall back to global, got %v/%v", f, pg.State())
		}
	})
}

func TestRemoteEvictAndFree(t *testing.T) {
	remoteRig(t, 2, func(th *sim.Thread, m *ace.Machine, n *numa.Manager) {
		pg, _ := n.NewPage()
		pg.SetHint(numa.HintRemote)
		pg.SetHome(1)
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f.Store32(8, 42)
		n.PrepareEvict(th, pg)
		if pg.GlobalFrame().Load32(8) != 42 {
			t.Error("evict lost remote data")
		}
		if pg.NCopies() != 0 {
			t.Error("evict left copies")
		}
		localFree := m.Memory().Local(1).Free()
		// Re-place and then free.
		g, _ := n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		if g.Load32(8) != 42 {
			t.Error("re-placement lost data")
		}
		tag := n.FreePage(th, pg)
		n.FreePageSync(tag)
		if m.Memory().Local(1).Free() != localFree {
			t.Error("free did not release the home frame")
		}
	})
}
