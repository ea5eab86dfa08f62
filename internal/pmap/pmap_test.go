package pmap_test

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mem"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/pmap"
	"numasim/internal/policy"
	"numasim/internal/sim"
)

func rig(t *testing.T, nproc int, pol numa.Policy, body func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager)) {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = nproc
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 32
	machine := ace.MustMachine(cfg)
	if pol == nil {
		pol = policy.NewDefault()
	}
	nm := numa.NewManager(machine, pol)
	pm := pmap.NewManager(machine, nm)
	machine.Engine().Spawn("test", 0, func(th *sim.Thread) {
		body(th, machine, pm, nm)
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnterInstallsTranslation(t *testing.T) {
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, err := nm.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		const va = 0x5000
		p.Enter(th, 0, va, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		f := m.MMU(0).Translate(p.Key(va), true)
		if f == nil {
			t.Fatal("no writable translation after Enter")
		}
		if f != pg.Authoritative() || f.Kind() != mem.Local || f.Proc() != 0 {
			t.Error("translation does not point at cpu0's local copy")
		}
	})
}

// TestMinMaxProtection verifies extension 2 (§2.3.3): a read fault on a
// writable page maps it read-only, so a later write faults again and the
// NUMA manager sees it.
func TestMinMaxProtection(t *testing.T) {
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		const va = 0x2000
		p.Enter(th, 0, va, pg, mmu.ProtReadWrite, mmu.ProtRead)
		if m.MMU(0).Translate(p.Key(va), false) == nil {
			t.Fatal("read translation missing")
		}
		if m.MMU(0).Translate(p.Key(va), true) != nil {
			t.Error("provisionally read-only mapping allows writes")
		}
		if pg.State() != numa.ReadOnly {
			t.Errorf("page state = %v, want read-only", pg.State())
		}
		// The write fault upgrades.
		p.Enter(th, 0, va, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		if m.MMU(0).Translate(p.Key(va), true) == nil {
			t.Error("write translation missing after upgrade")
		}
		if pg.State() != numa.LocalWritable || pg.Owner() != 0 {
			t.Errorf("page state = %v owner %d, want local-writable on 0", pg.State(), pg.Owner())
		}
	})
}

// TestTargetProcessor verifies extension 3: Enter creates the mapping only
// on the named processor.
func TestTargetProcessor(t *testing.T) {
	rig(t, 3, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		const va = 0x3000
		p.Enter(th, 1, va, pg, mmu.ProtReadWrite, mmu.ProtRead)
		if m.MMU(1).Translate(p.Key(va), false) == nil {
			t.Error("no translation on target processor")
		}
		for _, other := range []int{0, 2} {
			if m.MMU(other).Translate(p.Key(va), false) != nil {
				t.Errorf("translation leaked onto cpu%d", other)
			}
		}
	})
}

func TestEnterMinExceedsMaxPanics(t *testing.T) {
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		p.Enter(th, 0, 0x1000, pg, mmu.ProtRead, mmu.ProtReadWrite)
	})
}

func TestNoDowngradeOfExistingMapping(t *testing.T) {
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		const va = 0x4000
		p.Enter(th, 0, va, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		// A subsequent read fault (e.g. after an alias drop reinstated)
		// must not strip the write permission from the same frame.
		p.Enter(th, 0, va, pg, mmu.ProtReadWrite, mmu.ProtRead)
		if m.MMU(0).Translate(p.Key(va), true) == nil {
			t.Error("read re-enter downgraded a writable mapping")
		}
	})
}

func TestRemoveAllQuiesces(t *testing.T) {
	rig(t, 3, policy.NeverPin(), func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		p.Enter(th, 0, 0x1000, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		pg.Authoritative().Store32(0, 77)
		p.Enter(th, 1, 0x1000, pg, mmu.ProtReadWrite, mmu.ProtRead)
		pm.RemoveAll(th, pg)
		if pg.NCopies() != 0 {
			t.Error("copies survive RemoveAll")
		}
		if pg.GlobalFrame().Load32(0) != 77 {
			t.Error("dirty data lost by RemoveAll")
		}
		for i := 0; i < 3; i++ {
			if m.MMU(i).Translate(p.Key(0x1000), false) != nil {
				t.Errorf("cpu%d still maps page after RemoveAll", i)
			}
		}
	})
}

func TestTwoSpacesShareOnePage(t *testing.T) {
	// Two address spaces on different processors map the same logical page:
	// the page replicates and both spaces read the same contents.
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		pa := pm.Create()
		pb := pm.Create()
		if pa.Key(0x1000) == pb.Key(0x1000) {
			t.Fatal("spaces not distinct")
		}
		pg, _ := nm.NewPage()
		pa.Enter(th, 0, 0x1000, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		f := m.MMU(0).Translate(pa.Key(0x1000), true)
		f.Store32(8, 123)
		pb.Enter(th, 1, 0x8000, pg, mmu.ProtReadWrite, mmu.ProtRead)
		g := m.MMU(1).Translate(pb.Key(0x8000), false)
		if g.Load32(8) != 123 {
			t.Error("second space does not see shared data")
		}
	})
}

func TestRosettaCrossSpaceAlias(t *testing.T) {
	// Two spaces on the SAME processor mapping the same page: the hardware
	// allows one virtual address per frame per processor, so the second
	// Enter displaces the first.
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		pa := pm.Create()
		pb := pm.Create()
		pg, _ := nm.NewPage()
		pa.Enter(th, 0, 0x1000, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		pb.Enter(th, 0, 0x8000, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		if m.MMU(0).Translate(pa.Key(0x1000), false) != nil {
			t.Error("first space's alias should have been displaced")
		}
		if m.MMU(0).Translate(pb.Key(0x8000), true) == nil {
			t.Error("second space's mapping missing")
		}
		if m.MMU(0).Stats().AliasDrops == 0 {
			t.Error("alias drop not counted")
		}
	})
}

func TestFreePageViaPmap(t *testing.T) {
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		p.Enter(th, 0, 0x1000, pg, mmu.ProtReadWrite, mmu.ProtWrite)
		free := m.Memory().Global().Free()
		tag := pm.FreePage(th, pg)
		pm.FreePageSync(tag)
		if m.Memory().Global().Free() != free+1 {
			t.Error("global frame not reclaimed")
		}
		if m.MMU(0).Translate(p.Key(0x1000), false) != nil {
			t.Error("mapping survives FreePage")
		}
	})
}

// TestFaultDrivenProtocol runs the full fault-driven flow: translate, miss,
// Enter, retry — checking that protections drive the protocol exactly as
// §2.3.1 describes.
func TestFaultDrivenProtocol(t *testing.T) {
	rig(t, 2, nil, func(th *sim.Thread, m *ace.Machine, pm *pmap.Manager, nm *numa.Manager) {
		p := pm.Create()
		pg, _ := nm.NewPage()
		const va = 0x7000

		access := func(proc int, write bool) *mem.Frame {
			for tries := 0; tries < 3; tries++ {
				if f := m.MMU(proc).Translate(p.Key(va), write); f != nil {
					return f
				}
				minProt := mmu.ProtRead
				if write {
					minProt = mmu.ProtWrite
				}
				p.Enter(th, proc, va, pg, mmu.ProtReadWrite, minProt)
			}
			t.Fatal("fault loop did not converge")
			return nil
		}

		// cpu0 writes, cpu1 reads, cpu1 writes, cpu0 reads.
		access(0, true).Store32(0, 1)
		if got := access(1, false).Load32(0); got != 1 {
			t.Errorf("cpu1 read %d, want 1", got)
		}
		access(1, true).Store32(0, 2)
		if got := access(0, false).Load32(0); got != 2 {
			t.Errorf("cpu0 read %d, want 2", got)
		}
		if pg.Moves() != 1 {
			t.Errorf("moves = %d, want 1", pg.Moves())
		}
	})
}
