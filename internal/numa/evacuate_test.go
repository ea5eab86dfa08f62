package numa

// White-box property tests for the evacuation protocol: whatever a
// seeded random workload has scattered across the nodes, failing one
// must move every byte of every page intact onto the survivors, drain
// the failing pool to empty, and leave a revived node genuinely cold.

import (
	"bytes"
	"math/rand"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// randomPlacement answers placement requests from a seeded stream, so
// evacuation meets every mix of local, global and remote copies.
type randomPlacement struct{ rng *rand.Rand }

func (p *randomPlacement) CachePolicy(pg *Page, proc int, write bool, maxProt mmu.Prot) Location {
	switch r := p.rng.Intn(10); {
	case r < 5:
		return Local
	case r < 8:
		return Global
	default:
		return PlaceRemote
	}
}
func (p *randomPlacement) Name() string { return "random-placement" }

// evacMachine builds a seeded random multi-node machine for the
// evacuation properties: 2-6 nodes, symmetric random distances, one
// processor per node so placement spreads copies across every node.
func evacMachine(t *testing.T, seed int64, localFrames int) (*ace.Machine, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nnodes := 2 + rng.Intn(5)
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
	spec, err := topology.Custom("evac", nnodes, dist,
		650*sim.Nanosecond, 840*sim.Nanosecond, seed%2 == 0, 12*sim.Nanosecond)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cfg := ace.DefaultConfig()
	cfg.NProc = nnodes
	cfg.GlobalFrames = 64
	cfg.LocalFrames = localFrames
	cfg.PageSize = 256
	cfg.Topo = spec
	return ace.MustMachine(cfg), nnodes
}

// TestEvacuationPreservesContents fills pages with full-page byte
// patterns through ordinary write accesses, fails and revives nodes
// mid-script, and after every operation compares each page's
// authoritative frame byte-for-byte against a shadow copy. Evacuation
// must never lose or corrupt a byte, whichever path it takes (owner
// migration, demotion, sync-to-global, or replica drop).
func TestEvacuationPreservesContents(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, nnodes := evacMachine(t, seed, 4)
		n := NewManager(m, &randomPlacement{rng: rand.New(rand.NewSource(seed + 1))})

		const npages = 8
		pages := make([]*Page, npages)
		shadow := make([][]byte, npages)
		offline := make([]bool, nnodes)
		online := nnodes

		var scriptErr error
		m.Engine().Spawn("contents", 0, func(th *sim.Thread) {
			for i := range pages {
				pg, err := n.NewPage()
				if err != nil {
					scriptErr = err
					return
				}
				pages[i] = pg
				shadow[i] = make([]byte, m.PageSize())
			}
			for op := 0; op < 200; op++ {
				i := rng.Intn(npages)
				pg := pages[i]
				proc := rng.Intn(nnodes)
				switch r := rng.Intn(100); {
				case r < 50:
					f, prot := n.Access(th, pg, proc, true, mmu.ProtReadWrite)
					if !prot.CanWrite() {
						t.Errorf("seed %d op %d: write access granted %v", seed, op, prot)
						return
					}
					data := f.Data()
					for j := range data {
						data[j] = byte(op + j + int(seed))
					}
					copy(shadow[i], data)
				case r < 70:
					f, _ := n.Access(th, pg, proc, false, mmu.ProtReadWrite)
					if !bytes.Equal(f.Data(), shadow[i]) {
						t.Errorf("seed %d op %d: page%d read frame diverges from shadow", seed, op, pg.id)
						return
					}
				case r < 85:
					if online > 1 {
						node := rng.Intn(nnodes)
						for offline[node] {
							node = rng.Intn(nnodes)
						}
						n.FailNode(th, node)
						offline[node] = true
						online--
					}
				default:
					if online < nnodes {
						node := rng.Intn(nnodes)
						for !offline[node] {
							node = rng.Intn(nnodes)
						}
						n.ReviveNode(th, node)
						offline[node] = false
						online++
					}
				}
				for j, p := range pages {
					if !bytes.Equal(p.Authoritative().Data(), shadow[j]) {
						t.Errorf("seed %d op %d: page%d authoritative frame diverges from shadow",
							seed, op, p.id)
						return
					}
					if err := n.CheckInvariants(p); err != nil {
						t.Errorf("seed %d op %d: %v", seed, op, err)
						return
					}
				}
			}
		})
		if err := m.Engine().Run(); err != nil {
			t.Fatalf("seed %d: engine: %v", seed, err)
		}
		if scriptErr != nil {
			t.Fatalf("seed %d: %v", seed, scriptErr)
		}
		if t.Failed() {
			t.Fatalf("seed %d: contents property violated", seed)
		}
	}
}

// TestEvacuationQueueDrains piles local-hungry accesses onto minimal
// local memories under the stride-1 auditor, then fails nodes one by one
// down to a single survivor. After every failure the failing node must
// hold no page copies and a fully free pool, and the full audit must
// stay clean — the bounded work queue drained completely regardless of
// how full the survivors were. The first pass fills with writes only;
// the second makes each fill access a read or a write with equal odds,
// so read-only replicas still sit on a failing node while evacuation
// reclaims frames on the survivors, and the auditor must not see the
// node as down before it has drained. Destination pressure must be
// visible in both passes: across the seed set some evacuation had to
// back off or reclaim.
func TestEvacuationQueueDrains(t *testing.T) {
	for _, pass := range []struct {
		name  string
		reads bool
	}{{"writes", false}, {"reads and writes", true}} {
		var retries, evacuations uint64
		for seed := int64(100); seed < 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, nnodes := evacMachine(t, seed, ace.MinLocalFrames)
			n := NewManager(m, alwaysLocal{})
			n.EnableAudit(1, nil)

			npages := nnodes*ace.MinLocalFrames + 4
			pages := make([]*Page, npages)

			var scriptErr error
			m.Engine().Spawn("drain", 0, func(th *sim.Thread) {
				for i := range pages {
					pg, err := n.NewPage()
					if err != nil {
						scriptErr = err
						return
					}
					pages[i] = pg
				}
				// Fill every node's local memory with local copies.
				for op := 0; op < 6*npages; op++ {
					pg := pages[rng.Intn(npages)]
					proc := rng.Intn(nnodes)
					write := !pass.reads || rng.Intn(2) == 0
					n.Access(th, pg, proc, write, mmu.ProtReadWrite)
				}
				order := rng.Perm(nnodes)
				for _, node := range order[:nnodes-1] {
					n.FailNode(th, node)
					for _, pg := range pages {
						if pg.copies[node] != nil {
							t.Errorf("%s, seed %d: page%d still has a copy on failed node%d",
								pass.name, seed, pg.id, node)
							return
						}
					}
					pool := m.Memory().Local(node)
					if pool.Free() != pool.Size() {
						t.Errorf("%s, seed %d: node%d pool holds %d frames after evacuation",
							pass.name, seed, node, pool.Size()-pool.Free())
						return
					}
					if err := n.AuditAll(); err != nil {
						t.Errorf("%s, seed %d: audit after failing node%d: %v", pass.name, seed, node, err)
						return
					}
				}
			})
			if err := m.Engine().Run(); err != nil {
				t.Fatalf("%s, seed %d: engine: %v", pass.name, seed, err)
			}
			if scriptErr != nil {
				t.Fatalf("%s, seed %d: %v", pass.name, seed, scriptErr)
			}
			if t.Failed() {
				t.Fatalf("%s, seed %d: drain property violated", pass.name, seed)
			}
			retries += n.Stats().EvacRetries
			evacuations += n.Stats().Evacuations
		}
		if evacuations == 0 {
			t.Errorf("%s: no seed evacuated a single copy; the property never exercised the protocol", pass.name)
		}
		if retries == 0 {
			t.Errorf("%s: no seed hit destination pressure; minimal survivors should have forced a backoff", pass.name)
		}
	}
}

// TestRevivedNodeStartsCold fails a node carrying live copies, keeps
// the workload running against the survivors, then revives it and
// checks the node returns with no residency, clear reference bits, a
// reset clock hand and an untouched pool — and that it serves local
// placements again afterwards.
func TestRevivedNodeStartsCold(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, nnodes := evacMachine(t, seed, 4)
		n := NewManager(m, alwaysLocal{})

		const npages = 8
		pages := make([]*Page, npages)
		victim := int(seed) % nnodes

		var scriptErr error
		m.Engine().Spawn("revive", 0, func(th *sim.Thread) {
			for i := range pages {
				pg, err := n.NewPage()
				if err != nil {
					scriptErr = err
					return
				}
				pages[i] = pg
			}
			for op := 0; op < 60; op++ {
				n.Access(th, pages[rng.Intn(npages)], rng.Intn(nnodes), rng.Intn(2) == 0, mmu.ProtReadWrite)
			}
			n.FailNode(th, victim)
			for op := 0; op < 40; op++ {
				proc := rng.Intn(nnodes)
				if proc == victim {
					continue
				}
				n.Access(th, pages[rng.Intn(npages)], proc, rng.Intn(2) == 0, mmu.ProtReadWrite)
			}
			n.ReviveNode(th, victim)

			shard := &n.shards[victim]
			for i := range shard.resident {
				if shard.resident[i] != nil {
					t.Errorf("seed %d: revived node%d frame %d still resident", seed, victim, i)
				}
				if shard.refbit[i] {
					t.Errorf("seed %d: revived node%d frame %d refbit set", seed, victim, i)
				}
			}
			if shard.hand != 0 {
				t.Errorf("seed %d: revived node%d clock hand at %d, want 0", seed, victim, shard.hand)
			}
			pool := m.Memory().Local(victim)
			if pool.Free() != pool.Size() {
				t.Errorf("seed %d: revived node%d pool holds %d frames", seed, victim,
					pool.Size()-pool.Free())
			}
			if m.Topo().NodeDown(victim) {
				t.Errorf("seed %d: node%d still down after revival", seed, victim)
			}

			// The revived node must serve local placement again.
			pg := pages[0]
			n.Access(th, pg, victim, true, mmu.ProtReadWrite)
			if pg.copies[victim] == nil {
				t.Errorf("seed %d: revived node%d refused a local placement", seed, victim)
			}
			if err := n.AuditAll(); err != nil {
				t.Errorf("seed %d: audit after revival: %v", seed, err)
			}
		})
		if err := m.Engine().Run(); err != nil {
			t.Fatalf("seed %d: engine: %v", seed, err)
		}
		if scriptErr != nil {
			t.Fatalf("seed %d: %v", seed, scriptErr)
		}
	}
}
