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

// failureFuzzConfig replays a seeded random access script with node
// failures woven into it: at random points the script takes a random
// node offline (never the last one standing) or revives a random
// offline node, exactly as the health driver would, while the usual
// fuzz apparatus — stride-1 audit, the dense/map model check, the
// last-write-wins content oracle and the event-stream checker — runs
// throughout. Contended machines additionally sever and restore random
// links mid-script, so transfers reroute while the protocol churns.
func failureFuzzConfig(t *testing.T, seed int64, cfg ace.Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := ace.MustMachine(cfg)
	nnodes := m.NNodes()

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

	ring := simtrace.NewRingSink(256)
	checker := newProtocolChecker()
	m.AttachSink(simtrace.Tee(ring, checker))
	n.EnableAudit(1, ring)

	severed := make([]bool, len(m.Topo().LinkStats()))
	offline := make([]bool, nnodes)
	online := nnodes

	const npages = 6
	pages := make([]*numa.Page, npages)
	oracle := make([]uint32, npages)

	var scriptErr error
	m.Engine().Spawn("failure-fuzz", 0, func(th *sim.Thread) {
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
			for op := 0; op < nops; op++ {
				i := rng.Intn(npages)
				pg := pages[i]
				proc := rng.Intn(cfg.NProc)
				switch r := rng.Intn(100); {
				case r < 55:
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
				case r < 70:
					n.PrepareEvict(th, pg)
				case r < 75:
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
				case r < 85:
					// Node failure: evacuate and quarantine a random online
					// node, keeping at least one node in service.
					if online > 1 {
						node := rng.Intn(nnodes)
						for offline[node] {
							node = rng.Intn(nnodes)
						}
						n.FailNode(th, node)
						offline[node] = true
						online--
					}
				case r < 92:
					// Revival: a random offline node returns cold.
					if online < nnodes {
						node := rng.Intn(nnodes)
						for !offline[node] {
							node = rng.Intn(nnodes)
						}
						n.ReviveNode(th, node)
						offline[node] = false
						online++
					}
				case r < 97 && len(severed) > 0:
					// Link churn mid-script: sever or restore a random link,
					// rerouting any transfer the next access charges.
					li := rng.Intn(len(severed))
					if severed[li] {
						m.Topo().RestoreLink(li)
					} else {
						m.Topo().SeverLink(li)
					}
					severed[li] = !severed[li]
				default:
					pg.SetHome(rng.Intn(cfg.NProc))
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
				if err := n.AuditAll(); err != nil {
					return fmt.Errorf("op %d: %w", op, err)
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
}

// TestProtocolFuzzFailure replays the fuzz scripts on seeded random
// multi-node machines with node failures, revivals and link churn woven
// into the scripts. A pass means evacuation, quarantine and rerouting
// preserve every invariant the healthy protocol holds: contents match
// the last-write-wins oracle, the dense directory matches its map
// form, no copy ever rests on an offline node, and every observed
// state transition stays legal.
func TestProtocolFuzzFailure(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 20
	}
	for i := 0; i < seeds; i++ {
		seed := int64(90_000 + i)
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
		failureFuzzConfig(t, seed, cfg)
		if t.Failed() {
			t.Fatalf("stopping at first failing seed (%d nodes, %d procs, contended=%v)", nnodes, nprocs, contended)
		}
	}
}
