package numa_test

// Capability fuzz: the seeded protocol fuzz rerun with a policy that
// advises thread moves, plus a fake thread mover wired into the
// manager's co-placement channel, and a short heat epoch. The heat
// counters, their epoch clock and the advisory path all run hot while
// the usual apparatus (online audit at stride 1, the dense/map model check,
// the last-write-wins content oracle) checks that none of it perturbs
// the protocol.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
)

// capPolicy wraps the scripted policy with the ThreadAdvisor
// capability. The advice script is pre-generated, so runs are
// reproducible.
type capPolicy struct {
	*policy.Scripted
	advice []capAdvice
	pos    int
}

type capAdvice struct {
	target int
	ok     bool
}

// AdviseThread implements numa.ThreadAdvisor.
//
//numalint:hotpath
func (c *capPolicy) AdviseThread(pg *numa.Page, spec *topology.Spec, node int) (int, bool) {
	if c.pos >= len(c.advice) {
		return 0, false
	}
	a := c.advice[c.pos]
	c.pos++
	return a.target, a.ok
}

// fakeMover stands in for the scheduler on a machine with no scheduler:
// it records every hint's target node and accepts every other hint.
type fakeMover struct {
	calls    int
	accepted int
	targets  []int
}

// MigrateHint implements numa.ThreadMover.
//
//numalint:hotpath
func (f *fakeMover) MigrateHint(th *sim.Thread, node int) bool {
	f.calls++
	f.targets = append(f.targets, node)
	if f.calls%2 == 0 {
		f.accepted++
		return true
	}
	return false
}

// hintLedger tallies the manager's KindSchedHint events by the
// scheduler's verdict (Arg2: 1 accepted, 0 rejected).
type hintLedger struct {
	hints, accepted int
}

// Emit implements simtrace.Sink.
func (l *hintLedger) Emit(ev simtrace.Event) {
	if ev.Kind != simtrace.KindSchedHint {
		return
	}
	l.hints++
	if ev.Arg2 == 1 {
		l.accepted++
	}
}

var (
	_ numa.ThreadAdvisor = (*capPolicy)(nil)
	_ numa.ThreadMover   = (*fakeMover)(nil)
)

// capFuzzScript is fuzzScript's capability-bearing sibling: same shape
// of seeded access script, but the policy advises thread moves
// throughout. With pragma set the advising policy runs as the fallback
// of a policy.Pragma. It returns the target of every hint the mover
// received.
func capFuzzScript(t *testing.T, seed int64, pragma bool) []int {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 4
	cfg.PageSize = 256
	rng := rand.New(rand.NewSource(seed))
	m := ace.MustMachine(cfg)

	const nops = 120
	pol := &capPolicy{Scripted: &policy.Scripted{}}
	for i := 0; i < nops; i++ {
		if rng.Intn(2) == 0 {
			pol.Answers = append(pol.Answers, numa.Local)
		} else {
			pol.Answers = append(pol.Answers, numa.Global)
		}
		pol.advice = append(pol.advice, capAdvice{
			target: rng.Intn(m.NNodes()),
			ok:     rng.Intn(3) != 0,
		})
	}
	var bound numa.Policy = pol
	if pragma {
		bound = policy.NewPragma(pol)
	}
	n := numa.NewManager(m, bound)
	// A short epoch so the heat counters decay within the run.
	n.SetHeatEpoch(sim.Millisecond)
	mover := &fakeMover{}
	n.SetThreadMover(mover)

	ring := simtrace.NewRingSink(256)
	checker := newProtocolChecker()
	ledger := &hintLedger{}
	m.AttachSink(simtrace.Tee(ring, checker, ledger))
	n.EnableAudit(1, ring)

	const npages = 6
	pages := make([]*numa.Page, npages)
	oracle := make([]uint32, npages)

	var scriptErr error
	m.Engine().Spawn("capfuzz", 0, func(th *sim.Thread) {
		scriptErr = func() error {
			for i := range pages {
				pg, err := n.NewPage()
				if err != nil {
					return err
				}
				pages[i] = pg
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
					// Keep virtual time moving so heat epochs elapse.
					th.Idle(200 * sim.Microsecond)
				case r < 80:
					n.PrepareEvict(th, pg)
				case r < 90:
					n.MigrateOwner(th, pg, rng.Intn(cfg.NProc))
				default:
					n.FreePageSync(n.FreePage(th, pg))
					pages[i] = nil
					if err := numa.CheckMapModel(n, pages); err != nil {
						return fmt.Errorf("op %d: after free: dense/map divergence: %w", op, err)
					}
					fresh, err := n.NewPage()
					if err != nil {
						return err
					}
					pages[i], oracle[i] = fresh, 0
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
		return nil
	}
	if ledger.hints != mover.calls {
		t.Errorf("seed %d: manager traced %d hints, mover saw %d calls", seed, ledger.hints, mover.calls)
	}
	if ledger.accepted != mover.accepted {
		t.Errorf("seed %d: manager traced %d accepted hints, mover accepted %d", seed, ledger.accepted, mover.accepted)
	}
	return mover.targets
}

// TestProtocolFuzzCapabilities replays seeded scripts with the
// capability-bearing policy. A pass means the heat counters and the
// advisory calls never corrupt contents, break a directory invariant,
// diverge the dense forms from their map form, or drift the manager's
// traced hint verdicts from the mover's.
func TestProtocolFuzzCapabilities(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		capFuzzScript(t, int64(20_000+seed), false)
		if t.Failed() {
			t.Fatalf("stopping at first failing seed")
		}
	}
}

// TestPragmaForwardsAdvice replays capability scripts with the advising
// policy wrapped in a policy.Pragma. The fuzz pages carry no hints, so
// the mover must receive exactly the hints it receives unwrapped.
func TestPragmaForwardsAdvice(t *testing.T) {
	for seed := int64(20_000); seed < 20_025; seed++ {
		bare := capFuzzScript(t, seed, false)
		wrapped := capFuzzScript(t, seed, true)
		if len(bare) == 0 {
			t.Fatalf("seed %d: the unwrapped policy gave no hints to compare", seed)
		}
		if !slices.Equal(wrapped, bare) {
			t.Fatalf("seed %d: pragma-wrapped mover received hints %v, unwrapped %v", seed, wrapped, bare)
		}
	}
}
