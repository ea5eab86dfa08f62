package numa

// White-box property tests for the per-page decaying access histograms:
// the lazy shift-on-touch decay must be indistinguishable from an eager
// model that halves every counter at every epoch boundary, and a request
// from a thread still in an earlier epoch must not wipe them.

import (
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/sim"
)

// testRand is a tiny deterministic PRNG (SplitMix64) so this
// determinism-core package's tests need no math/rand.
type testRand uint64

func (r *testRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b893
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

// eagerHeat is the reference model: counters halved once per elapsed
// epoch, applied eagerly at every advance.
type eagerHeat struct {
	heat  []uint32
	move  uint32
	epoch uint32
}

func (e *eagerHeat) advanceTo(epoch uint32) {
	for e.epoch < epoch {
		for i := range e.heat {
			e.heat[i] >>= 1
		}
		e.move >>= 1
		e.epoch++
	}
}

func TestHeatDecayLazyMatchesEager(t *testing.T) {
	const nodes = 4
	for seed := 0; seed < 100; seed++ {
		rng := testRand(seed)
		pg := &Page{heat: make([]uint32, nodes)}
		ref := &eagerHeat{heat: make([]uint32, nodes)}
		epoch := uint32(0)
		for op := 0; op < 400; op++ {
			// Advance the epoch clock by 0..5 and touch the page: the
			// lazy model decays on touch, the eager model per epoch.
			epoch += uint32(rng.intn(6))
			pg.decayTo(epoch)
			ref.advanceTo(epoch)
			if rng.intn(4) == 0 {
				pg.moveHeat++
				ref.move++
			} else {
				n := rng.intn(nodes)
				pg.heat[n]++
				ref.heat[n]++
			}
			for i := range ref.heat {
				if pg.heat[i] != ref.heat[i] {
					t.Fatalf("seed %d op %d: node %d lazy heat %d, eager %d",
						seed, op, i, pg.heat[i], ref.heat[i])
				}
			}
			if pg.moveHeat != ref.move {
				t.Fatalf("seed %d op %d: lazy moveHeat %d, eager %d", seed, op, pg.moveHeat, ref.move)
			}
			if pg.heatEpoch != epoch {
				t.Fatalf("seed %d op %d: epoch stamp %d, want %d", seed, op, pg.heatEpoch, epoch)
			}
		}
	}
}

func TestHeatDecayLargeJumpZeroes(t *testing.T) {
	pg := &Page{heat: []uint32{1 << 31, 12345, 7}, moveHeat: 999, heatEpoch: 3}
	pg.decayTo(3 + 32)
	for i, h := range pg.heat {
		if h != 0 {
			t.Errorf("node %d: heat %d after a 32-epoch jump, want 0", i, h)
		}
	}
	if pg.moveHeat != 0 {
		t.Errorf("moveHeat %d after a 32-epoch jump, want 0", pg.moveHeat)
	}
	if pg.heatEpoch != 35 {
		t.Errorf("epoch stamp %d, want 35", pg.heatEpoch)
	}
}

func TestHeatAccessors(t *testing.T) {
	pg := &Page{heat: []uint32{3, 9, 9, 1}, moveHeat: 5}
	if got := pg.TotalHeat(); got != 22 {
		t.Errorf("TotalHeat = %d, want 22", got)
	}
	// Ties go to the lowest node index, keeping the advisor deterministic.
	if got := pg.HotNode(); got != 1 {
		t.Errorf("HotNode = %d, want 1", got)
	}
	if got := pg.NodeHeat(2); got != 9 {
		t.Errorf("NodeHeat(2) = %d, want 9", got)
	}
	if got := pg.MoveHeat(); got != 5 {
		t.Errorf("MoveHeat = %d, want 5", got)
	}
	cold := &Page{heat: make([]uint32, 4)}
	if got := cold.HotNode(); got != -1 {
		t.Errorf("HotNode on a cold page = %d, want -1", got)
	}
	pg.SetPolicyWord(0xdeadbeef)
	if got := pg.PolicyWord(); got != 0xdeadbeef {
		t.Errorf("PolicyWord = %#x, want 0xdeadbeef", got)
	}
}

// TestHeatSurvivesOlderRequest: thread clocks interleave, so the manager
// can handle a request from a thread still in an earlier heat epoch
// after requests in a later one. The manager's epoch must not step
// back, and the page must count the older request without decaying.
func TestHeatSurvivesOlderRequest(t *testing.T) {
	const epoch = 10 * sim.Millisecond
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	m := ace.MustMachine(cfg)
	n := NewManager(m, localPolicy{})
	n.SetHeatEpoch(epoch)
	var pg, other *Page
	m.Engine().Spawn("ahead", 0, func(th *sim.Thread) {
		var err error
		if pg, err = n.NewPage(); err != nil {
			t.Error(err)
			return
		}
		if other, err = n.NewPage(); err != nil {
			t.Error(err)
			return
		}
		th.Advance(25 * sim.Millisecond) // epoch 2, without yielding
		n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		n.Access(th, pg, 0, false, mmu.ProtReadWrite)
		n.Access(th, other, 0, false, mmu.ProtReadWrite)
	})
	m.Engine().Spawn("behind", 15*sim.Millisecond, func(th *sim.Thread) {
		if pg == nil {
			return
		}
		if e := th.Clock() / epoch; e != 1 {
			t.Errorf("behind thread requests in epoch %d, want 1", e)
		}
		n.Access(th, pg, 1, false, mmu.ProtReadWrite)
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if pg == nil {
		return
	}
	if got := pg.TotalHeat(); got != 3 {
		t.Errorf("TotalHeat = %d after three requests in one epoch, want 3", got)
	}
	if n.curEpoch != 2 {
		t.Errorf("manager epoch %d, want 2: it stepped back to an older request's", n.curEpoch)
	}
	if err := n.AuditAll(); err != nil {
		t.Errorf("audit: %v", err)
	}
}
