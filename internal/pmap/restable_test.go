package pmap

import (
	"fmt"
	"math/rand"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
)

// TestResidencyTableOracle drives the dense VPN-indexed residency tables
// through seeded scripts of pmap operations — enter, whole-page removal
// and page free. The test keeps the map form of each table
// itself, applying each step's residency rule to it, and asserts that
// every table holds the same entries as its model after every step.
func TestResidencyTableOracle(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		resOracleScript(t, int64(seed))
		if t.Failed() {
			t.Fatalf("stopping at first failing seed")
		}
	}
}

func resOracleScript(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 64
	cfg.LocalFrames = 8
	cfg.PageSize = 256
	machine := ace.MustMachine(cfg)
	nm := numa.NewManager(machine, policy.NewDefault())
	pm := NewManager(machine, nm)

	const npmaps = 3
	const npages = 8
	const nops = 150

	var scriptErr error
	machine.Engine().Spawn("oracle", 0, func(th *sim.Thread) {
		scriptErr = func() error {
			pmaps := make([]*Pmap, npmaps)
			models := make([]map[uint32]*numa.Page, npmaps)
			for i := range pmaps {
				pmaps[i], models[i] = pm.Create(), make(map[uint32]*numa.Page)
			}
			pages := make([]*numa.Page, npages)
			for i := range pages {
				pg, err := nm.NewPage()
				if err != nil {
					return err
				}
				pages[i] = pg
			}
			// drop applies RemoveAll's and FreePage's rule: pg leaves every
			// address space.
			drop := func(pg *numa.Page) {
				for _, model := range models {
					for v, mpg := range model {
						if mpg == pg {
							delete(model, v)
						}
					}
				}
			}
			checkAll := func(op int) error {
				for i, p := range pmaps {
					if err := checkModel(&p.res, models[i]); err != nil {
						return fmt.Errorf("op %d pmap %d: %w", op, i, err)
					}
				}
				return nil
			}
			shift := machine.PageShift()
			vaOf := func(vpn uint32) uint32 { return vpn << shift }
			for op := 0; op < nops; op++ {
				si := rng.Intn(npmaps)
				p, model := pmaps[si], models[si]
				pi := rng.Intn(npages)
				pg := pages[pi]
				vpn := uint32(16 + rng.Intn(32))
				proc := rng.Intn(cfg.NProc)
				switch r := rng.Intn(100); {
				case r < 55:
					minProt := mmu.ProtRead
					if rng.Intn(2) == 0 {
						minProt = mmu.ProtWrite
					}
					p.Enter(th, proc, vaOf(vpn), pg, mmu.ProtReadWrite, minProt)
					model[vpn] = pg
				case r < 85:
					pm.RemoveAll(th, pg)
					drop(pg)
				default:
					pm.FreePageSync(pm.FreePage(th, pg))
					drop(pg)
					fresh, err := nm.NewPage()
					if err != nil {
						return err
					}
					pages[pi] = fresh
				}
				if err := checkAll(op); err != nil {
					return err
				}
			}
			return nil
		}()
	})
	if err := machine.Engine().Run(); err != nil {
		t.Fatalf("seed %d: engine: %v", seed, err)
	}
	if scriptErr != nil {
		t.Errorf("seed %d: %v", seed, scriptErr)
	}
}

// checkModel compares a dense residency table with its map model entry by
// entry: the same VPNs, holding the same pages. It returns the first
// mismatch, or nil.
func checkModel(t *resTable, model map[uint32]*numa.Page) error {
	n := 0
	for vpn, pg := range t.pages {
		mpg := model[uint32(vpn)]
		switch {
		case pg == mpg:
		case pg == nil:
			return fmt.Errorf("vpn %#x missing from dense table, model has page%d", vpn, mpg.ID())
		case mpg == nil:
			return fmt.Errorf("vpn %#x holds page%d in dense table, missing from model", vpn, pg.ID())
		default:
			return fmt.Errorf("vpn %#x holds page%d in dense table, page%d in model", vpn, pg.ID(), mpg.ID())
		}
		if pg != nil {
			n++
		}
	}
	if n != len(model) {
		return fmt.Errorf("dense table has %d entries, model %d", n, len(model))
	}
	return nil
}
