package policy_test

import (
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
)

// mkPage creates a page with a given move count by ping-ponging writes
// between two processors under a never-pinning policy.
func mkPage(t *testing.T, moves int) (*numa.Page, *numa.Manager) {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 8
	cfg.LocalFrames = 8
	m := ace.MustMachine(cfg)
	n := numa.NewManager(m, policy.NeverPin())
	var pg *numa.Page
	m.Engine().Spawn("setup", 0, func(th *sim.Thread) {
		var err error
		pg, err = n.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		for pg.Moves() < moves {
			// Alternating writers transfer ownership once per write.
			n.Access(th, pg, (pg.Moves()+1)%2, true, mmu.ProtReadWrite)
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	return pg, n
}

func TestThresholdPolicy(t *testing.T) {
	pg, _ := mkPage(t, 3)
	pol := policy.NewThreshold(4)
	if got := pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite); got != numa.Local {
		t.Errorf("below threshold: %v, want LOCAL", got)
	}
	pg4, _ := mkPage(t, 4)
	if got := pol.CachePolicy(pg4, 0, true, mmu.ProtReadWrite); got != numa.Global {
		t.Errorf("at threshold: %v, want GLOBAL", got)
	}
	if pol.Name() != "threshold(4)" {
		t.Errorf("name = %q", pol.Name())
	}
}

func TestDefaultThresholdIsFour(t *testing.T) {
	if policy.NewDefault().Limit != 4 || policy.DefaultThreshold != 4 {
		t.Error("paper's default threshold is four")
	}
}

func TestZeroThresholdPinsImmediately(t *testing.T) {
	// With limit 0 every page with any history goes global; even a fresh
	// page, since 0 >= 0.
	pg, _ := mkPage(t, 0)
	pol := policy.NewThreshold(0)
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Global {
		t.Error("threshold 0 should answer GLOBAL")
	}
}

func TestNegativeThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	policy.NewThreshold(-1)
}

func TestNeverPin(t *testing.T) {
	pg, _ := mkPage(t, 50)
	pol := policy.NeverPin()
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Local {
		t.Error("never-pin answered GLOBAL")
	}
}

func TestAllGlobal(t *testing.T) {
	pg, _ := mkPage(t, 0)
	pol := policy.AllGlobal{}
	if pol.CachePolicy(pg, 0, false, mmu.ProtReadWrite) != numa.Global {
		t.Error("writable page should be GLOBAL")
	}
	if pol.CachePolicy(pg, 0, false, mmu.ProtRead) != numa.Local {
		t.Error("read-only page should still replicate locally")
	}
	if pol.Name() != "all-global" {
		t.Errorf("name = %q", pol.Name())
	}
}

func TestAllLocal(t *testing.T) {
	pg, _ := mkPage(t, 7)
	pol := policy.AllLocal{}
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Local {
		t.Error("all-local answered GLOBAL")
	}
	if pol.Name() != "all-local" {
		t.Errorf("name = %q", pol.Name())
	}
}

func TestPragmaOverrides(t *testing.T) {
	pg, _ := mkPage(t, 10) // way past threshold
	pol := policy.NewPragma(nil)
	if !strings.HasPrefix(pol.Name(), "pragma+threshold") {
		t.Errorf("name = %q", pol.Name())
	}
	// Unhinted: falls through to threshold, which says GLOBAL at 10 moves.
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Global {
		t.Error("unhinted page should follow fallback")
	}
	pg.SetHint(numa.HintCacheable)
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Local {
		t.Error("cacheable hint ignored")
	}
	pg.SetHint(numa.HintNoncacheable)
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Global {
		t.Error("noncacheable hint ignored")
	}
	fresh, _ := mkPage(t, 0)
	fresh.SetHint(numa.HintNoncacheable)
	if pol.CachePolicy(fresh, 0, true, mmu.ProtReadWrite) != numa.Global {
		t.Error("noncacheable hint on fresh page ignored")
	}
}

func TestReconsider(t *testing.T) {
	pg, _ := mkPage(t, 2)
	pol := policy.NewReconsider(2, 3)
	if !strings.Contains(pol.Name(), "reconsider") {
		t.Errorf("name = %q", pol.Name())
	}
	// Page at the limit: first two consultations say GLOBAL, the third
	// (period reached) forgives and says LOCAL.
	for i := 0; i < 2; i++ {
		if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Global {
			t.Fatalf("consultation %d: want GLOBAL", i)
		}
	}
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Local {
		t.Fatal("period reached: want LOCAL (pin reconsidered)")
	}
	// After forgiveness the page gets a fresh allowance.
	if pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite) != numa.Local {
		t.Fatal("after forgiveness: want LOCAL")
	}
}

// TestReconsiderForgetsRecycledPage: a page record freed and re-adopted
// starts with fresh placement state (§4.3, footnote 4), Reconsider's
// counts included. Two pinned requests leave the page one short of the
// period's forgiveness; the recycled record must start the count over.
func TestReconsiderForgetsRecycledPage(t *testing.T) {
	pol := policy.NewReconsider(0, 3)
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 8
	cfg.LocalFrames = 8
	m := ace.MustMachine(cfg)
	n := numa.NewManager(m, pol)
	m.Engine().Spawn("recycle", 0, func(th *sim.Thread) {
		pg, err := n.NewPage()
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if got := pol.CachePolicy(pg, 0, true, mmu.ProtReadWrite); got != numa.Global {
				t.Errorf("pinned request %d: %v, want GLOBAL", i, got)
			}
		}
		n.FreePageSync(n.FreePage(th, pg))
		again, err := n.NewPage()
		if err != nil {
			t.Error(err)
			return
		}
		if again != pg {
			t.Error("NewPage did not recycle the freed record")
			return
		}
		if got := pol.CachePolicy(again, 0, true, mmu.ProtReadWrite); got != numa.Global {
			t.Errorf("first request on the recycled page: %v, want GLOBAL", got)
		}
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReconsiderBadParamsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { policy.NewReconsider(-1, 5) },
		func() { policy.NewReconsider(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestForced(t *testing.T) {
	pg, _ := mkPage(t, 0)
	f := &policy.Forced{Answer: numa.Global}
	if f.CachePolicy(pg, 0, false, mmu.ProtRead) != numa.Global {
		t.Error("forced global")
	}
	if f.Name() != "forced-GLOBAL" {
		t.Errorf("name = %q", f.Name())
	}
	f.Answer = numa.Local
	if f.CachePolicy(pg, 0, false, mmu.ProtRead) != numa.Local {
		t.Error("forced local")
	}
}
