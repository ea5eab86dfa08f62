package policy_test

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
)

// TestCoPlaceAdvice pins CoPlace's thread advice on the mesh8 topology
// (a 2x4 mesh, processor p homed on node p, distance 10 + 6 per hop),
// with heat built through the manager. Each refusal is paired with the
// nearest heat pattern that is advised, so a case cannot pass by
// CoPlace never advising.
func TestCoPlaceAdvice(t *testing.T) {
	for _, c := range []struct {
		name   string
		heat   map[int]int // reads per node
		node   int         // the thread's node
		min    int
		target int
		ok     bool
	}{
		// Node 1 is one hop from node 0 and node 3 three hops: node 1
		// outbids the hotter node 3 (6*10/16 > 7*10/28) but holds no
		// majority, so no advice. From node 2 both are one hop away.
		{"nearer outbids hotter", map[int]int{1: 6, 3: 7}, 0, 1, 0, false},
		{"hotter at equal distance", map[int]int{1: 6, 3: 7}, 2, 1, 3, true},

		{"no strict majority", map[int]int{1: 5, 4: 5}, 0, 1, 0, false},
		{"strict majority", map[int]int{1: 6, 4: 5}, 0, 1, 1, true},

		// MinHeat bounds the distance-discounted score: 6*10/16 = 3.
		{"below MinHeat", map[int]int{1: 6}, 0, 4, 0, false},
		{"at MinHeat", map[int]int{1: 7}, 0, 4, 1, true},

		{"own node", map[int]int{0: 8}, 0, 1, 0, false},
		{"other node", map[int]int{0: 8}, 1, 1, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := ace.DefaultConfig()
			cfg.NProc = 8
			cfg.Topology = "mesh8"
			cfg.GlobalFrames = 16
			cfg.LocalFrames = 4
			m := ace.MustMachine(cfg)
			pol := policy.NewCoPlace(nil, c.min)
			n := numa.NewManager(m, pol)
			var pg *numa.Page
			m.Engine().Spawn("reader", 0, func(th *sim.Thread) {
				var err error
				if pg, err = n.NewPage(); err != nil {
					t.Error(err)
					return
				}
				for node := 0; node < m.NNodes(); node++ {
					for i := 0; i < c.heat[node]; i++ {
						n.Access(th, pg, node, false, mmu.ProtReadWrite)
					}
				}
			})
			if err := m.Engine().Run(); err != nil {
				t.Fatal(err)
			}
			if pg == nil {
				return
			}
			for node := 0; node < m.NNodes(); node++ {
				if got := pg.NodeHeat(node); got != uint32(c.heat[node]) {
					t.Fatalf("node %d heat %d, want %d (the reads crossed a heat epoch)", node, got, c.heat[node])
				}
			}
			target, ok := pol.AdviseThread(pg, m.Spec(), c.node)
			if ok != c.ok || (ok && target != c.target) {
				t.Errorf("AdviseThread from node %d = (%d, %v), want (%d, %v)", c.node, target, ok, c.target, c.ok)
			}
		})
	}
}
