package numa_test

import (
	"fmt"
	"math/rand"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
)

// protocolChecker is a simtrace sink that validates protocol invariants
// from the event stream alone: every observed state change must be legal
// under numa.Transitions, a page is pinned at most once per lifetime, and
// its move count never decreases. Violations are recorded, not fatal, so
// the fuzz driver can dump the ring-buffer trace alongside them.
type protocolChecker struct {
	errs   []string
	state  map[int64]numa.State
	pinned map[int64]bool
	moves  map[int64]int64
}

func newProtocolChecker() *protocolChecker {
	return &protocolChecker{
		state:  make(map[int64]numa.State),
		pinned: make(map[int64]bool),
		moves:  make(map[int64]int64),
	}
}

func (c *protocolChecker) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

func (c *protocolChecker) Emit(ev simtrace.Event) {
	switch ev.Kind {
	case simtrace.KindPageCreated:
		c.state[ev.Page] = numa.ReadOnly
		c.pinned[ev.Page] = false
		c.moves[ev.Page] = 0
	case simtrace.KindStateChange:
		from, to := numa.State(ev.Arg2), numa.State(ev.Arg)
		if have, ok := c.state[ev.Page]; ok && have != from {
			c.failf("page%d: state change from %v but last known state is %v", ev.Page, from, have)
		}
		legal := false
		for _, s := range numa.Transitions[from] {
			if s == to {
				legal = true
				break
			}
		}
		if !legal {
			c.failf("page%d: illegal transition %v -> %v", ev.Page, from, to)
		}
		c.state[ev.Page] = to
	case simtrace.KindPin:
		if c.pinned[ev.Page] {
			c.failf("page%d: pinned twice without an intervening free", ev.Page)
		}
		c.pinned[ev.Page] = true
	case simtrace.KindDecision:
		if ev.Arg2 < c.moves[ev.Page] {
			c.failf("page%d: move count went backwards (%d -> %d)", ev.Page, c.moves[ev.Page], ev.Arg2)
		}
		c.moves[ev.Page] = ev.Arg2
	case simtrace.KindPageFreed:
		delete(c.state, ev.Page)
		delete(c.pinned, ev.Page)
		delete(c.moves, ev.Page)
	}
}

// fuzzScript drives one seeded random access script against the NUMA
// manager and reports the first invariant violation, comparing page
// contents against a trivial last-write-wins oracle throughout. With
// pressure set, a scripted chaos injector fails a quarter of the local
// frame allocations, exercising the retry/fallback path under the same
// oracle.
// It returns the number of chaos faults the manager absorbed, so the
// pressure test can assert the failure schedule really fired.
func fuzzScript(t *testing.T, seed int64, pressure bool) uint64 {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 4 // small enough that LOCAL decisions sometimes fall back
	cfg.PageSize = 256
	return fuzzConfig(t, seed, pressure, cfg)
}

// scripted replays a pre-generated sequence of placement answers, one per
// request, repeating the last answer when the script runs out (an empty
// script answers LOCAL). It drives the manager through arbitrary decision
// sequences deterministically, independent of any real policy's logic.
type scripted struct {
	answers []numa.Location
	pos     int
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (s *scripted) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if len(s.answers) == 0 {
		return numa.Local
	}
	if s.pos >= len(s.answers) {
		return s.answers[len(s.answers)-1]
	}
	ans := s.answers[s.pos]
	s.pos++
	return ans
}

// Name implements numa.Policy.
//
//numalint:hotpath
func (s *scripted) Name() string { return "scripted" }

// scriptedChaos replays an explicit allocation-failure schedule: call k
// of FailLocalAlloc fails iff fail[k] (out-of-range calls succeed), so the
// pressure fuzz's failure schedule is part of its seeded script rather
// than drawn from a second stream. It never delays, crashes or stalls.
type scriptedChaos struct {
	fail    []bool
	retries int
	wait    sim.Time
	calls   int
}

func (s *scriptedChaos) FailLocalAlloc(now sim.Time, proc int) bool {
	i := s.calls
	s.calls++
	return i < len(s.fail) && s.fail[i]
}

func (s *scriptedChaos) MoveDelay(now sim.Time, proc int) sim.Time { return 0 }
func (s *scriptedChaos) Disrupt(now sim.Time, proc int) bool       { return false }
func (s *scriptedChaos) MaxRetries() int                           { return s.retries }
func (s *scriptedChaos) RetryBackoff(attempt int) sim.Time         { return s.wait }

// fuzzConfig is fuzzScript against an arbitrary machine configuration; the
// multi-node topology fuzz feeds it random Custom specs via cfg.Topo.
func fuzzConfig(t *testing.T, seed int64, pressure bool, cfg ace.Config) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := ace.MustMachine(cfg)

	// Pre-generate the policy's answers so the run exercises scripted too.
	// PlaceRemote answers are demoted to Global by the manager unless the
	// page carries a home pragma.
	const nops = 120
	script := &scripted{}
	for i := 0; i < nops; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			script.answers = append(script.answers, numa.Local)
		case r < 8:
			script.answers = append(script.answers, numa.Global)
		default:
			script.answers = append(script.answers, numa.PlaceRemote)
		}
	}
	n := numa.NewManager(m, script)
	if pressure {
		// The failure schedule is part of the seeded script: call k of
		// FailLocalAlloc fails iff fails[k], so the run stays reproducible.
		fails := make([]bool, 4*nops)
		for i := range fails {
			fails[i] = rng.Intn(4) == 0
		}
		n.SetChaos(&scriptedChaos{fail: fails, retries: 2, wait: 50 * sim.Microsecond})
	}

	ring := simtrace.NewRingSink(256)
	checker := newProtocolChecker()
	m.AttachSink(simtrace.Tee(ring, checker))
	// Full online audit: every protocol action re-validates the directory
	// invariants, and any violation dies with the ring contents attached.
	// After every operation the dense directory and residency shards are
	// also compared with their map form, rebuilt from the held pages.
	n.EnableAudit(1, ring)

	const npages = 6
	pages := make([]*numa.Page, npages)
	oracle := make([]uint32, npages)

	var scriptErr error
	m.Engine().Spawn("fuzz", 0, func(th *sim.Thread) {
		scriptErr = func() error {
			for i := range pages {
				pg, err := n.NewPage()
				if err != nil {
					return err
				}
				if i%2 == 0 {
					pg.SetHint(numa.HintRemote)
					pg.SetHome(rng.Intn(cfg.NProc))
				}
				pages[i] = pg
			}
			if err := numa.CheckMapModel(n, pages); err != nil {
				return fmt.Errorf("after page creation: dense/map divergence: %w", err)
			}
			for op := 0; op < nops; op++ {
				i := rng.Intn(npages)
				pg := pages[i]
				proc := rng.Intn(cfg.NProc)
				switch r := rng.Intn(100); {
				case r < 70:
					write := rng.Intn(2) == 0
					f, prot := n.Access(th, pg, proc, write, mmu.ProtReadWrite)
					if write {
						if !prot.CanWrite() {
							return fmt.Errorf("op %d: write access granted prot %v", op, prot)
						}
						v := uint32(seed)<<8 | uint32(op)
						f.Store32(0, v)
						oracle[i] = v
					} else if got := f.Load32(0); got != oracle[i] {
						return fmt.Errorf("op %d: page%d read %#x, oracle %#x", op, pg.ID(), got, oracle[i])
					}
				case r < 90:
					n.PrepareEvict(th, pg)
				case r < 95:
					n.FreePageSync(n.FreePage(th, pg))
					// Check before NewPage, which reuses the freed record
					// in the freed slot.
					pages[i] = nil
					if err := numa.CheckMapModel(n, pages); err != nil {
						return fmt.Errorf("op %d: after free: dense/map divergence: %w", op, err)
					}
					fresh, err := n.NewPage()
					if err != nil {
						return err
					}
					pages[i], oracle[i] = fresh, 0
				default:
					pg.SetHome(rng.Intn(cfg.NProc)) // churn the §4.4 home pragma
				}
				for j, p := range pages {
					if err := n.CheckInvariants(p); err != nil {
						return fmt.Errorf("op %d: %w", op, err)
					}
					if got := p.Authoritative().Load32(0); got != oracle[j] {
						return fmt.Errorf("op %d: page%d authoritative copy holds %#x, oracle %#x",
							op, p.ID(), got, oracle[j])
					}
				}
				if err := numa.CheckMapModel(n, pages); err != nil {
					return fmt.Errorf("op %d: dense/map divergence: %w", op, err)
				}
			}
			return nil
		}()
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatalf("seed %d: engine: %v", seed, err)
	}
	if scriptErr != nil || len(checker.errs) > 0 {
		t.Errorf("seed %d: script error: %v; checker errors: %v", seed, scriptErr, checker.errs)
		t.Logf("last %d events:\n%s", len(ring.Events()), simtrace.FormatEvents(ring.Events()))
	}
	return n.Stats().ChaosFaults
}

// TestProtocolFuzz replays seeded random access scripts against the NUMA
// manager: random reads and writes from random processors under a scripted
// policy (including §4.4 remote placements), interleaved with evictions,
// owner migrations, frees and home-pragma churn. After every operation the
// structural invariants must hold and each page's authoritative contents
// must match a last-write-wins oracle; the simtrace event stream is
// independently checked for transition legality and pin monotonicity.
// Failures dump the ring-buffer trace.
func TestProtocolFuzz(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		fuzzScript(t, int64(seed), false)
		if t.Failed() {
			t.Fatalf("stopping at first failing seed")
		}
	}
}

// TestProtocolFuzzPressure reruns the fuzz scripts with a scripted chaos
// injector failing a quarter of the local-frame allocations. Transient
// allocation failures must never corrupt contents or break a protocol
// invariant: the manager retries, reclaims or falls back to global
// placement, and the last-write-wins oracle stays green throughout.
func TestProtocolFuzzPressure(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 25
	}
	var faults uint64
	for seed := 0; seed < seeds; seed++ {
		faults += fuzzScript(t, int64(seed), true)
		if t.Failed() {
			t.Fatalf("stopping at first failing seed")
		}
	}
	if faults == 0 {
		t.Error("the scripted failure schedule never fired; the pressure path went unexercised")
	}
}

// TestProtocolFuzzTopology replays the fuzz scripts on seeded random
// multi-node machines: 2..8 nodes with random symmetric SLIT matrices,
// more processors than nodes (so node pools and their copies are shared
// between processors), and link contention on half the machines. The full
// protocol apparatus rides along — online audit at stride 1 with its
// per-node residency bounds, the dense/map model check, the last-write-wins
// content oracle, and the event-stream transition checker — so a pass
// means the node-indexed protocol holds the same invariants the two-level
// ACE does.
func TestProtocolFuzzTopology(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 20
	}
	for i := 0; i < seeds; i++ {
		seed := int64(50_000 + i)
		rng := rand.New(rand.NewSource(seed))
		nnodes := 2 + rng.Intn(7) // 2..8 nodes
		dist := make([][]int, nnodes)
		for a := range dist {
			dist[a] = make([]int, nnodes)
			dist[a][a] = 10
		}
		for a := 0; a < nnodes; a++ {
			for b := a + 1; b < nnodes; b++ {
				d := 11 + rng.Intn(40)
				dist[a][b], dist[b][a] = d, d
			}
		}
		nprocs := nnodes + rng.Intn(nnodes+1) // N..2N processors
		contended := i%2 == 0
		spec, err := topology.Custom("fuzz", nprocs, dist,
			650*sim.Nanosecond, 840*sim.Nanosecond, contended, 12*sim.Nanosecond)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := ace.DefaultConfig()
		cfg.NProc = nprocs
		cfg.GlobalFrames = 32
		cfg.LocalFrames = 4
		cfg.PageSize = 256
		cfg.Topo = spec
		fuzzConfig(t, seed, i%4 == 3, cfg)
		if t.Failed() {
			t.Fatalf("stopping at first failing seed (%d nodes, %d procs, contended=%v)", nnodes, nprocs, contended)
		}
	}
}

// TestDenseDirectoryOracle is the dense-vs-map property test: it replays
// seeded fuzz scripts (a fresh seed range, half of them under memory
// pressure so eviction and reclaim churn the residency shards).
// fuzzScript rebuilds the map form of the directory and the residency
// shards from the pages it holds, and compares it with the dense forms
// after every operation and between each free and the next allocation.
// A pass means the dense, slot-stamped forms stayed identical to
// the old map forms across create/free/reuse cycles, replication,
// migration, eviction and remote placement.
func TestDenseDirectoryOracle(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for i := 0; i < seeds; i++ {
		seed := int64(10_000 + i)
		fuzzScript(t, seed, i%2 == 1)
		if t.Failed() {
			t.Fatalf("stopping at first failing seed")
		}
	}
}
