// Package pmap implements the pmap manager of the paper's ACE pmap layer
// (Figure 2): the module that exports the Mach pmap interface to the
// machine-independent VM system, translating pmap operations into MMU
// operations and coordinating the NUMA manager and NUMA policy.
//
// The interface carries the paper's three NUMA extensions (§2.3.3):
//
//  1. pmap_free_page / pmap_free_page_sync, so cache resources can be
//     released and cache state reset when page frames are freed;
//  2. a min/max protection pair on pmap_enter, so the layer may map pages
//     with the strictest permissions that resolve the fault (provisionally
//     marking writable pages read-only to keep seeing faults);
//  3. an explicit target-processor argument on pmap_enter, so mappings are
//     created only on processors that need them.
package pmap

import (
	"fmt"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// Pmap holds the virtual-to-physical mappings of one address space (one
// Mach task). It is a cache: mappings may be dropped or their permissions
// reduced at almost any time, and will be re-entered on the resulting
// faults.
type Pmap struct {
	mgr   *Manager
	space uint32 // address-space id, packed into MMU keys
	shift uint   // page shift
}

// Manager is the pmap manager: one per machine, coordinating all pmaps.
// Address-space ids are monotonic and never reused.
type Manager struct {
	machine   *ace.Machine
	numa      *numa.Manager
	nextSpace uint32
}

// NewManager creates the pmap manager for machine, placing pages through
// the NUMA manager nm.
func NewManager(machine *ace.Machine, nm *numa.Manager) *Manager {
	return &Manager{
		machine: machine,
		numa:    nm,
	}
}

// Create makes a new pmap (a new address space).
func (m *Manager) Create() *Pmap {
	p := &Pmap{
		mgr:   m,
		space: m.nextSpace,
		shift: m.machine.PageShift(),
	}
	m.nextSpace++
	return p
}

// Key composes the MMU key for virtual address va in this address space.
//
//numalint:hotpath
func (p *Pmap) Key(va uint32) mmu.Key {
	return mmu.Key(p.space)<<32 | mmu.Key(va>>p.shift)
}

// Enter resolves a fault: it establishes a translation for va on processor
// proc, placing the page through the NUMA policy. maxProt is the loosest
// protection machine-independent code permits; minProt the strictest that
// resolves the faulting access. Costs are charged to th as system time.
//
//numalint:hotpath
func (p *Pmap) Enter(th *sim.Thread, proc int, va uint32, pg *numa.Page, maxProt, minProt mmu.Prot) {
	if minProt&^maxProt != 0 {
		panic(fmt.Sprintf("pmap: min protection %v exceeds max %v", minProt, maxProt))
	}
	write := minProt.CanWrite()
	frame, prot := p.mgr.numa.Access(th, pg, proc, write, maxProt)

	hw := p.mgr.machine.MMU(proc)
	key := p.Key(va)
	// Never downgrade an existing stronger mapping to the same frame: the
	// NUMA manager answers with the strictest permission for the request,
	// but a surviving looser mapping means no state change was needed.
	if existing := hw.Lookup(key); existing != nil && existing.Frame == frame {
		prot |= existing.Prot
	}
	hw.Enter(key, frame, prot)
	th.AdvanceSys(p.mgr.machine.Cost().MMUOp)
	if bus := p.mgr.machine.Bus(); bus.Enabled() {
		bus.Emit(simtrace.Event{
			Kind: simtrace.KindMapEnter, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.ID(), Arg: int64(va), Arg2: int64(prot),
		})
	}
}

// RemoveAll removes a single logical page from every pmap on every
// processor (the Mach pmap_remove_all, used by pageout). It quiesces the
// page through the NUMA manager, which also syncs dirty copies back to
// global memory.
func (m *Manager) RemoveAll(th *sim.Thread, pg *numa.Page) {
	m.numa.PrepareEvict(th, pg)
}

// FreePage starts lazy cleanup of a freed logical page and returns a tag
// (the paper's pmap_free_page).
func (m *Manager) FreePage(th *sim.Thread, pg *numa.Page) *numa.FreeTag {
	return m.numa.FreePage(th, pg)
}

// FreePageSync waits for cleanup started by FreePage to complete (the
// paper's pmap_free_page_sync).
func (m *Manager) FreePageSync(tag *numa.FreeTag) {
	m.numa.FreePageSync(tag)
}
