// The adaptive policy zoo: counter-driven policies built on the NUMA
// manager's per-page decaying access histograms and move counters,
// which the manager keeps on every request (see
// internal/numa/policyapi.go).
//
// Where the paper's Threshold pins on the lifetime move count — a
// one-way door — these policies react to decayed counters, so a page
// that was contended in one phase of a program can come back to local
// memory in the next:
//
//   - DecayThreshold pins on the decaying move counter and unpins as
//     it cools (the simplest possible adaptive fix to Threshold);
//   - Bandit runs a per-page epsilon-greedy two-armed bandit over
//     local-vs-global, in the spirit of MAO's learned approach;
//   - Classifier splits pages into the literature's two regimes:
//     read-mostly pages replicate locally, write-contended pages
//     without a dominant accessor go global;
//   - CoPlace wraps any inner policy with the ThreadAdvisor
//     capability, advising the scheduler to migrate threads toward
//     the nodes holding their hot pages (Phoenix's thread half of the
//     co-placement problem), weighting candidates by the topology's
//     distance matrix.
//
// Every method on these types runs on the protocol hot path and
// allocates nothing; per-page learned state lives in the page's
// 64-bit policy scratch word, pooled with the page record.
package policy

import (
	"fmt"

	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// DefaultSweepInterval is the defrost sweep period Reconsider and the
// adaptive policies request: pinned pages are re-presented every 50
// virtual ms so a cooled page can unpin.
const DefaultSweepInterval = 50 * sim.Millisecond

// DecayThreshold is Threshold on the decaying move counter: a page is
// pinned global while its decayed move heat meets the limit and comes
// back to local memory once the heat has decayed away. Implementing
// ReconsideringPolicy gets pinned pages re-presented.
type DecayThreshold struct {
	Limit uint32
}

// NewDecayThreshold returns the adaptive threshold with the given
// decayed-move-heat limit.
func NewDecayThreshold(limit int) *DecayThreshold {
	if limit < 1 {
		panic(fmt.Sprintf("policy: decay threshold limit %d < 1", limit))
	}
	return &DecayThreshold{Limit: uint32(limit)}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (d *DecayThreshold) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if pg.MoveHeat() >= d.Limit {
		return numa.Global
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (d *DecayThreshold) Name() string { return fmt.Sprintf("decay-threshold(%d)", d.Limit) }

// ReconsiderInterval implements numa.ReconsideringPolicy.
//
//numalint:hotpath
func (d *DecayThreshold) ReconsiderInterval() sim.Time { return DefaultSweepInterval }

// Bandit state packed into the page's policy scratch word.
const (
	banditQMax = 1<<16 - 1 // full reward: the arm behaved perfectly
	// banditGlobalReward is the standing reward of the global arm: a
	// pinned page never moves but pays global latency on every access,
	// so the arm scores below a quiet local page (banditQMax) and above
	// a ping-ponging one (toward 0).
	banditGlobalReward = 40000
)

// Bandit is a per-page epsilon-greedy two-armed bandit over
// local-vs-global placement, in the spirit of MAO's learned policies.
// Each page carries two reward estimates in its policy scratch word:
// the local arm is rewarded when a local placement survived without an
// ownership move since the bandit's previous decision, the global arm
// earns a fixed mid-scale reward (stable but slow). Exploration is
// driven by a splitmix64 draw over the seed, the page id, the virtual
// time and a count of heat-epoch changes — deterministic at any host
// parallelism.
type Bandit struct {
	Eps  int    // exploration probability in percent
	Seed uint64 // exploration PRNG seed

	// epoch counts the requests whose heat epoch differed from the
	// previous request's (lastEpoch); each change re-salts the
	// exploration schedule, so a page stuck exploiting one arm gets
	// fresh draws over time. Thread clocks interleave, so the epoch can
	// step back as well as forward, and either step counts.
	epoch     uint64
	lastEpoch uint32
}

// NewBandit returns a bandit exploring with the given probability
// (percent) and PRNG seed.
func NewBandit(epsPct int, seed uint64) *Bandit {
	if epsPct < 0 || epsPct > 100 {
		panic(fmt.Sprintf("policy: bandit eps %d%% outside [0,100]", epsPct))
	}
	return &Bandit{Eps: epsPct, Seed: seed}
}

// mix64 is the splitmix64 finalizer (the chaos package's PRNG idiom):
// a bijective avalanche over one 64-bit word.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (b *Bandit) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if e := uint32(pg.LastRequestAt() / numa.DefaultHeatEpoch); e != b.lastEpoch {
		b.lastEpoch = e
		b.epoch++
	}
	if !maxProt.CanWrite() {
		// Read-only data replicates; the bandit arbitrates only the
		// writable pages whose placement actually trades off.
		return numa.Local
	}
	w := pg.PolicyWord()
	qLocal := uint32(w & 0xffff)
	qGlobal := uint32(w >> 16 & 0xffff)
	lastMoves := uint32(w >> 32 & 0xffff)
	lastArm := uint32(w >> 48 & 1)
	moves := uint32(uint64(pg.Moves()) & 0xffff)
	if w>>49&1 == 1 {
		// Settle the previous decision's reward (EWMA, 1/8 step).
		if lastArm == 0 {
			var reward uint32
			if moves == lastMoves {
				reward = banditQMax
			}
			qLocal = qLocal - qLocal/8 + reward/8
		} else {
			qGlobal = qGlobal - qGlobal/8 + banditGlobalReward/8
		}
	} else {
		// Optimistic initialization: try local first.
		qLocal, qGlobal = banditQMax, banditGlobalReward
	}
	arm := uint32(0)
	if qGlobal > qLocal {
		arm = 1
	}
	r := mix64(b.Seed ^ uint64(pg.ID())*0x9e3779b97f4a7c15 ^ uint64(pg.LastRequestAt()) ^ b.epoch<<48)
	if int(r%100) < b.Eps {
		arm = uint32(r>>32) & 1
	}
	pg.SetPolicyWord(uint64(qLocal) | uint64(qGlobal)<<16 | uint64(moves)<<32 | uint64(arm)<<48 | 1<<49)
	if arm == 1 {
		return numa.Global
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (b *Bandit) Name() string { return fmt.Sprintf("bandit(%d%%,%d)", b.Eps, b.Seed) }

// ReconsiderInterval implements numa.ReconsideringPolicy.
//
//numalint:hotpath
func (b *Bandit) ReconsiderInterval() sim.Time { return DefaultSweepInterval }

// Classifier realizes the literature's two-regime rule directly:
// read-mostly pages (never written, or mapped read-only) replicate
// into local memory; writable pages are partitioned locally while one
// node dominates their decayed access heat, and go global only while
// they are both moving (decayed move heat at the limit) and spread
// across nodes with no majority accessor.
type Classifier struct {
	Limit uint32 // decayed move heat to call a page contended
}

// NewClassifier returns a classifier with the given contention limit.
func NewClassifier(limit int) *Classifier {
	if limit < 1 {
		panic(fmt.Sprintf("policy: classifier limit %d < 1", limit))
	}
	return &Classifier{Limit: uint32(limit)}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (c *Classifier) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if !maxProt.CanWrite() || !pg.EverWritten() {
		return numa.Local
	}
	if pg.MoveHeat() >= c.Limit {
		hot := pg.HotNode()
		if hot < 0 || 2*uint64(pg.NodeHeat(hot)) <= pg.TotalHeat() {
			return numa.Global
		}
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (c *Classifier) Name() string { return fmt.Sprintf("classifier(%d)", c.Limit) }

// ReconsiderInterval implements numa.ReconsideringPolicy.
//
//numalint:hotpath
func (c *Classifier) ReconsiderInterval() sim.Time { return DefaultSweepInterval }

// CoPlace wraps an inner page-placement policy with the ThreadAdvisor
// capability: page placement is the inner policy's verbatim, and after
// each request CoPlace may advise the scheduler to migrate the
// faulting thread toward the node holding the page's heat — Phoenix's
// observation that orchestrating both thread and page placement beats
// either alone. Candidate nodes are scored by decayed heat discounted
// by the topology's distance from the thread's current node, so a
// moderately hot nearby node can out-bid a hotter far one; advice is
// only given when the winner dominates the page's total heat.
type CoPlace struct {
	Inner   numa.Policy
	MinHeat uint32 // decayed heat the winner needs before advising
}

// NewCoPlace wraps inner (the default DecayThreshold when nil) with
// thread co-placement advice.
func NewCoPlace(inner numa.Policy, minHeat int) *CoPlace {
	if inner == nil {
		inner = NewDecayThreshold(DefaultThreshold)
	}
	if minHeat < 1 {
		panic(fmt.Sprintf("policy: coplace min heat %d < 1", minHeat))
	}
	return &CoPlace{Inner: inner, MinHeat: uint32(minHeat)}
}

// CachePolicy implements numa.Policy: page placement is the inner
// policy's.
//
//numalint:hotpath
func (c *CoPlace) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	return c.Inner.CachePolicy(pg, proc, write, maxProt)
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (c *CoPlace) Name() string { return "coplace+" + c.Inner.Name() }

// ReconsiderInterval implements numa.ReconsideringPolicy by forwarding
// to the inner policy: 0, no sweep, when the inner policy does not
// reconsider.
//
//numalint:hotpath
func (c *CoPlace) ReconsiderInterval() sim.Time { return sweepInterval(c.Inner) }

// AdviseThread implements numa.ThreadAdvisor. node is the faulting
// thread's current node; each candidate node's decayed heat is
// discounted by its distance from node in spec (LocalDistance/dist, so
// the thread's own node keeps its full heat) and the best scorer wins —
// provided it clears MinHeat and holds a strict majority of the page's
// total heat.
//
//numalint:hotpath
func (c *CoPlace) AdviseThread(pg *numa.Page, spec *topology.Spec, node int) (int, bool) {
	best, bestScore := -1, uint64(0)
	for i := 0; i < spec.NNodes(); i++ {
		h := pg.NodeHeat(i)
		if h == 0 {
			continue
		}
		score := uint64(h) * uint64(topology.LocalDistance) / uint64(spec.Dist(node, i))
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 || best == node || bestScore < uint64(c.MinHeat) {
		return 0, false
	}
	if 2*uint64(pg.NodeHeat(best)) <= pg.TotalHeat() {
		return 0, false
	}
	return best, true
}

// Compile-time interface checks (both capabilities embed numa.Policy).
var (
	_ numa.ReconsideringPolicy = (*DecayThreshold)(nil)
	_ numa.ReconsideringPolicy = (*Bandit)(nil)
	_ numa.ReconsideringPolicy = (*Classifier)(nil)
	_ numa.ThreadAdvisor       = (*CoPlace)(nil)
	_ numa.ReconsideringPolicy = (*CoPlace)(nil)
)
