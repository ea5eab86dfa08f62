// Package mmu models the per-processor memory management unit of the ACE
// (the Rosetta-C), as seen through the narrow interface the paper's pmap
// layer uses: enter a translation, tighten its protection, remove it, and
// translate on access.
//
// The model preserves the hardware quirk the paper leans on: Rosetta allows
// only a single virtual address per physical page per processor, so entering
// an aliased mapping silently displaces the previous one, producing later
// faults that the machine-independent VM system resolves (§2.1, §2.3.1).
package mmu

import (
	"fmt"

	"numasim/internal/mem"
)

// Prot is a page protection: a bitmask of read/write permission.
type Prot uint8

// Protection values.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1

	ProtReadWrite = ProtRead | ProtWrite
)

// CanWrite reports whether the protection permits stores.
//
//numalint:hotpath
func (p Prot) CanWrite() bool { return p&ProtWrite != 0 }

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("prot(%d)", uint8(p))
	}
}

// Key identifies one translation: an address-space id in the high 32 bits
// and a virtual page number in the low 32, as the pmap layer packs them.
// The MMU indexes its forward table by those two halves; one processor's
// MMU serves every address space that runs on it.
type Key uint64

// PTE is one virtual-to-physical translation held by an MMU.
type PTE struct {
	Key   Key
	Frame *mem.Frame
	Prot  Prot
}

// Stats counts MMU events of interest to the evaluation.
type Stats struct {
	Enters     uint64 // translations installed
	Removes    uint64 // translations dropped
	AliasDrops uint64 // translations displaced by the one-VA-per-frame rule
}

// tlbSize is the number of direct-mapped software-TLB slots. Keys are
// (space, vpn) pairs, so consecutive pages of one address space fill
// consecutive slots; 64 slots cover the working set of the paper's
// applications' inner loops.
const tlbSize = 64

// tlbSlot caches one translation. The slot holds the PTE pointer, not a
// copy, so in-place protection changes are always visible; only mappings
// that are removed or replaced need explicit slot invalidation.
type tlbSlot struct {
	key Key
	pte *PTE
}

// table is a two-level dense table of translations, a row per address
// space or frame pool and a column per VPN or frame index. Each level
// grows on demand to the highest index stored, so an empty table costs
// nothing and no lookup hashes.
type table [][]*PTE

// get returns the entry at row, col, or nil.
func (t table) get(row, col int) *PTE {
	if row >= len(t) || col >= len(t[row]) {
		return nil
	}
	return t[row][col]
}

// at returns the slot at row, col, growing the table to reach it.
func (t *table) at(row, col int) **PTE {
	if row >= len(*t) {
		//numalint:coldpath table growth: once per doubling of the highest space id or pool mapped here
		*t = grow(*t, row)
	}
	if col >= len((*t)[row]) {
		//numalint:coldpath table growth: once per doubling of the row's highest VPN or frame index mapped here
		(*t)[row] = grow((*t)[row], col)
	}
	return &(*t)[row][col]
}

// grow returns t lengthened so that i is in range, at least doubling its
// length, so a table that reaches n entries has been copied O(log n) times.
func grow[T any](t []T, i int) []T {
	g := make([]T, max(2*len(t), i+1))
	copy(g, t)
	return g
}

// MMU is the translation state of a single processor. Each translation
// sits in two dense tables, the two views of the Rosetta's inverted page
// table: fwd finds a key's PTE by the key's space id, then its VPN; inv
// finds the PTE mapping a frame by the frame's pool, then its index (the
// one-VA-per-frame rule leaves at most one).
type MMU struct {
	proc  int
	fwd   table // [space][vpn]
	inv   table // [pool][frame index]; pools are numbered by poolOf
	stats Stats

	// free recycles PTE records: removal pushes, Enter pops, so the
	// fault/protocol path stops allocating once the working set's PTEs
	// exist. Recycling is safe with respect to the TLB because every
	// removal path invalidates the slot caching the retired PTE before it
	// can be reused.
	free []*PTE

	// direct-mapped software "TLB" to make the hot translate path cheap
	tlb [tlbSize]tlbSlot
}

// NewSet creates the MMUs of processors 0 through nproc-1, as one slice
// in one allocation. An MMU is large (its TLB alone is 1 KiB), so index
// the slice rather than copy its elements.
func NewSet(nproc int) []MMU {
	ms := make([]MMU, nproc)
	for i := range ms {
		ms[i].proc = i
	}
	return ms
}

// Stats returns a copy of the MMU's event counters.
func (m *MMU) Stats() Stats { return m.stats }

// split returns key's two halves: its address-space id and its VPN.
func split(key Key) (space, vpn int) { return int(key >> 32), int(uint32(key)) }

// poolOf numbers frame's pool for the inverted table: 0 for global memory,
// 1+n for node n's local memory. A frame is named by pool and index alone,
// so one MMU maps the frames of one mem.Memory; byFrame panics on a frame
// from another.
func poolOf(frame *mem.Frame) int { return frame.Proc() + 1 }

// byFrame returns the translation mapping frame on this processor, or nil.
// A slot holding another frame's PTE means frame comes from a different
// memory than the frames this MMU maps.
func (m *MMU) byFrame(frame *mem.Frame) *PTE {
	pte := m.inv.get(poolOf(frame), frame.Index())
	if pte != nil && pte.Frame != frame {
		panic(fmt.Sprintf("mmu: cpu%d: frame %s shares its pool and index with mapped frame %s of another memory",
			m.proc, frame, pte.Frame))
	}
	return pte
}

// drop unlinks a live translation from both tables and the TLB, and
// recycles its record.
func (m *MMU) drop(pte *PTE) {
	space, vpn := split(pte.Key)
	m.fwd[space][vpn] = nil
	m.inv[poolOf(pte.Frame)][pte.Frame.Index()] = nil
	m.tlbDrop(pte.Key)
	m.free = append(m.free, pte) //numalint:coldpath bounded: capacity tracks the PTE working-set high water
}

// tlbDrop invalidates the slot caching key, if it still does.
func (m *MMU) tlbDrop(key Key) {
	s := &m.tlb[int(key)&(tlbSize-1)]
	if s.pte != nil && s.key == key {
		s.pte = nil
	}
}

// tlbFill caches a translation, displacing whatever shared its slot.
func (m *MMU) tlbFill(key Key, pte *PTE) {
	m.tlb[int(key)&(tlbSize-1)] = tlbSlot{key: key, pte: pte}
}

// Enter installs a translation from vpn to frame with the given protection,
// replacing any previous translation for vpn. If frame is already mapped at
// a different virtual address on this processor, that mapping is dropped
// first (the Rosetta single-VA restriction) and counted in Stats.AliasDrops.
//
//numalint:hotpath
func (m *MMU) Enter(key Key, frame *mem.Frame, prot Prot) {
	if frame == nil {
		panic("mmu: Enter with nil frame")
	}
	if prot == ProtNone {
		panic("mmu: Enter with no permissions")
	}
	if old := m.byFrame(frame); old != nil && old.Key != key {
		m.drop(old)
		m.stats.AliasDrops++
	}
	slot := m.fwd.at(split(key))
	if old := *slot; old != nil {
		// Re-enter of a mapped key: update the record in place. The TLB
		// caches the pointer, so a cached slot stays valid.
		m.inv[poolOf(old.Frame)][old.Frame.Index()] = nil
		old.Frame = frame
		old.Prot = prot
		*m.inv.at(poolOf(frame), frame.Index()) = old
		m.stats.Enters++
		m.tlbFill(key, old)
		return
	}
	var pte *PTE
	if k := len(m.free); k > 0 {
		pte = m.free[k-1]
		m.free = m.free[:k-1]
		*pte = PTE{Key: key, Frame: frame, Prot: prot}
	} else {
		//numalint:coldpath pool miss: first fault on a fresh key; the steady state pops the free list
		pte = &PTE{Key: key, Frame: frame, Prot: prot}
	}
	*slot = pte
	*m.inv.at(poolOf(frame), frame.Index()) = pte
	m.stats.Enters++
	// Prefill: the faulting access retries immediately after Enter.
	m.tlbFill(key, pte)
}

// RemoveFrame drops the translation (there is at most one) mapping frame on
// this processor. It reports whether a translation existed.
//
//numalint:hotpath
func (m *MMU) RemoveFrame(frame *mem.Frame) bool {
	pte := m.byFrame(frame)
	if pte == nil {
		return false
	}
	m.drop(pte)
	m.stats.Removes++
	return true
}

// Lookup returns the translation for vpn, or nil.
//
//numalint:hotpath
func (m *MMU) Lookup(key Key) *PTE {
	return m.fwd.get(split(key))
}

// Probe is the TLB-hit half of Translate: it returns the frame the TLB
// caches for key when that translation grants need (ProtRead for a load,
// ProtWrite for a store), and nil otherwise. It is small enough to inline
// into the reference path; on nil the caller goes on to Translate.
//
//numalint:hotpath
func (m *MMU) Probe(key Key, need Prot) *mem.Frame {
	s := &m.tlb[int(key)&(tlbSize-1)]
	if pte := s.pte; pte != nil && s.key == key && pte.Prot&need != 0 {
		return pte.Frame
	}
	return nil
}

// Translate resolves an access. It returns the frame to access if the
// translation exists with sufficient permission, or nil to signal a fault.
// It probes the direct-mapped TLB first; on a miss it looks the key up in
// the forward table and caches what it finds, and the probe of the filled
// slot checks that entry's permission.
//
//numalint:hotpath
func (m *MMU) Translate(key Key, write bool) *mem.Frame {
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if f := m.Probe(key, need); f != nil {
		return f
	}
	pte := m.Lookup(key)
	if pte == nil {
		return nil
	}
	m.tlbFill(key, pte)
	return m.Probe(key, need)
}
