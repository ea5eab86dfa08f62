package numa

// This file holds the manager's dense hot state: the generation-stamped
// live-page directory (which pages exist, in stable slot order) and the
// per-processor residency shards the clock reclaimer sweeps. Both used
// map- or swap-indexed forms; the dense forms are page-index-addressed
// slices so the fault path never hashes and whole-directory sweeps are
// linear scans. The fuzz suites rebuild the map forms from the pages a
// script holds and compare them with these, entry by entry, after every
// step.

// dirSlot is one slot of the live-page directory. gen is bumped each time
// the slot is vacated, so a stale *Page handle (freed, slot since reused)
// can never unregister the slot's new occupant: remove checks both the
// pointer and the generation stamp.
type dirSlot struct {
	pg  *Page
	gen uint32
}

// directory is the dense live-page index behind AuditAll, the state-dump
// summary, and page registration. Slots are reused LIFO through a free
// list; iteration is by ascending slot index, which is deterministic by
// construction (no map iteration anywhere).
type directory struct {
	slots []dirSlot
	free  []int32 // vacated slot indices, reused LIFO
}

// add registers pg in the first free slot (or a fresh one) and stamps the
// page with its slot and generation.
func (d *directory) add(pg *Page) {
	var idx int32
	if k := len(d.free); k > 0 {
		idx = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		idx = int32(len(d.slots))
		d.slots = append(d.slots, dirSlot{})
	}
	s := &d.slots[idx]
	s.pg = pg
	pg.slot = idx
	pg.gen = s.gen
}

// remove vacates pg's slot and bumps its generation. A page whose stamp
// no longer matches (already freed, slot reused) is ignored, mirroring
// the old swap-remove index's tolerance of double unregister.
func (d *directory) remove(pg *Page) {
	idx := pg.slot
	if idx < 0 || int(idx) >= len(d.slots) {
		return
	}
	s := &d.slots[idx]
	if s.pg != pg || s.gen != pg.gen {
		return
	}
	s.pg = nil
	s.gen++
	pg.slot = -1
	d.free = append(d.free, idx)
}

// forEach visits every live page in ascending slot order and stops at the
// first error.
func (d *directory) forEach(fn func(*Page) error) error {
	for i := range d.slots {
		if pg := d.slots[i].pg; pg != nil {
			if err := fn(pg); err != nil {
				return err
			}
		}
	}
	return nil
}

// procShard is one node's share of the reclaimer's hot state: which
// page's copy occupies each local frame, a second-chance reference bit
// per frame, and the clock hand. Sharding by node keeps each pool's
// working set contiguous and independent — the parallel harness runs
// whole machines concurrently, and within a machine each node's sweep
// touches only its own shard. (On the ACE, node == processor, hence the
// historical name.)
type procShard struct {
	resident []*Page // frame index -> page holding a copy there
	refbit   []bool  // second-chance reference bits
	hand     int     // clock hand position
}
