package numa

import (
	"fmt"

	"numasim/internal/mem"
	"numasim/internal/sim"
)

// LocalCopy returns node's local replica of pg, or nil.
func LocalCopy(pg *Page, node int) *mem.Frame { return pg.copies[node] }

// SetHeatEpoch shortens the decay period of n's heat counters, so that a
// short fuzz run sees them decay.
func SetHeatEpoch(n *Manager, d sim.Time) { n.heatEpoch = d }

// CheckMapModel compares the manager's dense hot state with the map form
// it replaced, rebuilt from pages, the pages the caller holds live (nil
// entries, such as a page just freed, are skipped). The model is the
// live-page set keyed by page id, plus each node's frame -> page
// residency implied by those pages' copies. The dense directory must hold
// exactly the model's pages, each in the slot and generation its stamps
// name, and each node's residency shard must record exactly the model's
// (frame, page) entries. It returns the first divergence found, or nil.
func CheckMapModel(n *Manager, pages []*Page) error {
	live := make(map[int64]*Page)
	resident := make([]map[int]*Page, len(n.shards))
	for p := range resident {
		resident[p] = make(map[int]*Page)
	}
	for _, pg := range pages {
		if pg == nil {
			continue
		}
		live[pg.id] = pg
		for p, c := range pg.copies {
			if c == nil {
				continue
			}
			if other, ok := resident[p][c.Index()]; ok {
				return fmt.Errorf("cpu%d frame %d holds copies of both page%d and page%d", p, c.Index(), other.id, pg.id)
			}
			resident[p][c.Index()] = pg
		}
	}

	seen := 0
	for i, s := range n.dir.slots {
		if s.pg == nil {
			continue
		}
		seen++
		pg := s.pg
		if live[pg.id] != pg {
			return fmt.Errorf("dense directory slot %d holds page%d, which the model does not hold live", i, pg.id)
		}
		if int(pg.slot) != i || pg.gen != s.gen {
			return fmt.Errorf("page%d: stamps (slot %d, gen %d) do not match directory slot %d (gen %d)",
				pg.id, pg.slot, pg.gen, i, s.gen)
		}
	}
	if seen != len(live) {
		return fmt.Errorf("dense directory holds %d pages, map model %d", seen, len(live))
	}

	for p := range n.shards {
		count := 0
		for i, pg := range n.shards[p].resident {
			want := resident[p][i]
			if pg == want {
				if pg != nil {
					count++
				}
				continue
			}
			switch {
			case pg == nil:
				return fmt.Errorf("cpu%d frame %d: dense shard records nothing, map model page%d", p, i, want.id)
			case want == nil:
				return fmt.Errorf("cpu%d frame %d: dense shard records page%d, map model nothing", p, i, pg.id)
			default:
				return fmt.Errorf("cpu%d frame %d: dense shard records page%d, map model page%d", p, i, pg.id, want.id)
			}
		}
		if count != len(resident[p]) {
			return fmt.Errorf("cpu%d: dense shard records %d copies, map model %d", p, count, len(resident[p]))
		}
	}
	return nil
}
