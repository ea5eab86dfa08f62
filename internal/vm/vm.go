// Package vm models the machine-independent part of the Mach virtual
// memory system (§2.1): tasks (address spaces), VM objects holding logical
// pages, zero-fill and protection fault handling, and a simple FIFO pageout
// to backing store. It drives the machine-dependent pmap layer exactly as
// Mach does — everything below the pmap interface is the paper's system.
//
// The package also provides Context, the user-level view through which
// simulated application threads issue loads and stores against their
// task's virtual address space, charging virtual time per reference.
package vm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"numasim/internal/ace"
	"numasim/internal/mem"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/pmap"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// Fault outcomes.
var (
	// ErrNoMapping reports an access outside any allocated region.
	ErrNoMapping = errors.New("vm: no mapping for address")
	// ErrProtection reports a write to a read-only region.
	ErrProtection = errors.New("vm: protection violation")
)

// AccessError is the panic value raised by Context on an unrecoverable
// memory access (the simulated program's segmentation fault).
type AccessError struct {
	VA    uint32
	Write bool
	Err   error
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("vm: %s fault at %#x: %v", kind, e.VA, e.Err)
}

func (e *AccessError) Unwrap() error { return e.Err }

// Stats counts VM-level events.
type Stats struct {
	ZeroFillFaults uint64
	Pageouts       uint64
	Pageins        uint64
	COWReads       uint64 // reads resolved through a shared origin page
	COWCopies      uint64 // pages privately copied on first write
}

// Object is a Mach VM object: a container of logical pages that address
// spaces map. Objects may be mapped by several tasks, which is how memory
// is shared.
type Object struct {
	name   string
	kernel *Kernel
	slots  []slot
	refs   int
	freed  bool
}

type slot struct {
	pg      *numa.Page
	backing []byte // paged-out contents; nil if never paged out
}

// Name returns the object's diagnostic name.
func (o *Object) Name() string { return o.name }

// Pages returns the object's size in pages.
func (o *Object) Pages() int { return len(o.slots) }

// Page returns the resident logical page at index i, or nil.
func (o *Object) Page(i int) *numa.Page { return o.slots[i].pg }

// Peek32 reads the 32-bit word at byte offset off of page idx without
// charging simulated time: from the resident page's authoritative frame,
// from paged-out backing store, or zero for a never-touched page. It is
// meant for post-run verification.
func (o *Object) Peek32(idx, off int) uint32 {
	s := &o.slots[idx]
	switch {
	case s.pg != nil:
		return s.pg.Authoritative().Load32(off)
	case s.backing != nil:
		return uint32(s.backing[off]) | uint32(s.backing[off+1])<<8 |
			uint32(s.backing[off+2])<<16 | uint32(s.backing[off+3])<<24
	default:
		return 0
	}
}

// Peek64 reads the 64-bit word at byte offset off of page idx without
// charging simulated time (see Peek32).
func (o *Object) Peek64(idx, off int) uint64 {
	return uint64(o.Peek32(idx, off)) | uint64(o.Peek32(idx, off+4))<<32
}

// Entry is one region of a task's address map.
type Entry struct {
	start  uint32
	length uint32
	obj    *Object
	objOff uint32 // byte offset into the object, page aligned
	prot   mmu.Prot
	hint   numa.Hint
	home   int // home processor for remote placement; -1 unset
	name   string

	// Copy-on-write state (Mach vm_copy, §2.1). A COW entry reads through
	// the immutable origin object and copies pages into its private obj
	// (the shadow) on first write.
	cow       bool
	origin    *Object
	originOff uint32
}

// CopyOnWrite reports whether the region is a copy-on-write view.
func (e *Entry) CopyOnWrite() bool { return e.cow }

// Start returns the region's first virtual address.
func (e *Entry) Start() uint32 { return e.start }

// Length returns the region's size in bytes.
func (e *Entry) Length() uint32 { return e.length }

// End returns the first address past the region.
func (e *Entry) End() uint32 { return e.start + e.length }

// Prot returns the region's protection.
func (e *Entry) Prot() mmu.Prot { return e.prot }

// Object returns the backing VM object.
func (e *Entry) Object() *Object { return e.obj }

// Name returns the region's diagnostic name.
func (e *Entry) Name() string { return e.name }

// Task is a Mach task: an address space in which simulated threads run.
type Task struct {
	kernel  *Kernel
	pm      *pmap.Pmap
	entries []*Entry // sorted by start
	nextVA  uint32
	name    string
}

// Kernel ties the machine-independent VM system to one machine: it owns
// the NUMA manager, the pmap manager, all tasks and the pageout state.
type Kernel struct {
	machine *ace.Machine
	nm      *numa.Manager
	pm      *pmap.Manager
	tasks   []*Task
	stats   Stats

	// FIFO pageout queue of resident pages.
	fifo []fifoRef

	// bufPool recycles backing-store buffers across pageout/pagein
	// cycles, so steady-state paging allocates nothing.
	bufPool [][]byte

	// UnixMaster, when true, models the Mach Unix compatibility code that
	// funnels system calls onto processor 0 (§4.6).
	UnixMaster bool

	// RefTrace, when non-nil, observes every user-level memory reference
	// (the trace facility of §5). It adds one predicate test per access
	// when unset.
	RefTrace func(proc int, va uint32, write bool)
}

type fifoRef struct {
	obj *Object
	idx int
}

// NewKernel builds a kernel for machine with the given NUMA policy.
func NewKernel(machine *ace.Machine, pol numa.Policy) *Kernel {
	nm := numa.NewManager(machine, pol)
	return &Kernel{
		machine: machine,
		nm:      nm,
		pm:      pmap.NewManager(machine, nm),
	}
}

// Machine returns the kernel's machine.
func (k *Kernel) Machine() *ace.Machine { return k.machine }

// NUMA returns the kernel's NUMA manager.
func (k *Kernel) NUMA() *numa.Manager { return k.nm }

// Pmap returns the kernel's pmap manager.
func (k *Kernel) Pmap() *pmap.Manager { return k.pm }

// Stats returns a copy of the kernel's counters.
func (k *Kernel) Stats() Stats { return k.stats }

// NewTask creates an empty address space.
func (k *Kernel) NewTask(name string) *Task {
	t := &Task{
		kernel: k,
		pm:     k.pm.Create(),
		nextVA: 0x0001_0000,
		name:   name,
	}
	k.tasks = append(k.tasks, t)
	return t
}

// NewObject creates a VM object of the given size (rounded up to whole
// pages).
func (k *Kernel) NewObject(name string, size uint32) *Object {
	ps := uint32(k.machine.PageSize())
	n := int((size + ps - 1) / ps)
	if n == 0 {
		n = 1
	}
	return &Object{name: name, kernel: k, slots: make([]slot, n)}
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Kernel returns the kernel the task belongs to.
func (t *Task) Kernel() *Kernel { return t.kernel }

// Pmap returns the task's pmap.
func (t *Task) Pmap() *pmap.Pmap { return t.pm }

// Entries returns the task's address map entries in address order.
func (t *Task) Entries() []*Entry { return t.entries }

// Allocate creates an anonymous zero-filled region of size bytes with the
// given protection (the Mach vm_allocate) and returns its base address.
// Regions are separated by an unmapped guard page so that overruns fault.
func (t *Task) Allocate(name string, size uint32, prot mmu.Prot) uint32 {
	obj := t.kernel.NewObject(name, size)
	return t.Map(name, obj, 0, size, prot)
}

// Map maps length bytes of obj starting at byte offset objOff (page
// aligned) into the task (the Mach vm_map) and returns the base address.
func (t *Task) Map(name string, obj *Object, objOff, length uint32, prot mmu.Prot) uint32 {
	ps := uint32(t.kernel.machine.PageSize())
	if objOff%ps != 0 {
		panic(fmt.Sprintf("vm: object offset %#x not page aligned", objOff))
	}
	if length == 0 {
		panic("vm: zero-length mapping")
	}
	if obj.freed {
		panic("vm: mapping a freed object")
	}
	pages := (length + ps - 1) / ps
	if int((objOff/ps)+pages) > len(obj.slots) {
		panic(fmt.Sprintf("vm: mapping [%#x,+%#x) exceeds object %q (%d pages)", objOff, length, obj.name, len(obj.slots)))
	}
	va := t.nextVA
	e := &Entry{
		start:  va,
		length: pages * ps,
		obj:    obj,
		objOff: objOff,
		prot:   prot,
		home:   -1,
		name:   name,
	}
	obj.refs++
	t.entries = append(t.entries, e)
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].start < t.entries[j].start })
	t.nextVA = va + e.length + ps // guard page
	return va
}

// Deallocate removes the region containing va (the Mach vm_deallocate).
// When the last mapping of an object goes away, its pages are freed.
func (t *Task) Deallocate(th *sim.Thread, va uint32) {
	for i, e := range t.entries {
		if va >= e.start && va < e.End() {
			t.pm.Remove(th, e.start, e.length)
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			e.obj.refs--
			if e.obj.refs == 0 {
				t.kernel.destroyObject(th, e.obj)
			}
			if e.cow {
				e.origin.refs--
				if e.origin.refs == 0 {
					t.kernel.destroyObject(th, e.origin)
				}
			}
			return
		}
	}
	panic(fmt.Sprintf("vm: Deallocate of unmapped address %#x", va))
}

// CopyRegion makes a copy-on-write copy of the region containing srcVA
// (the Mach vm_copy) and returns the new region's base address. Both the
// source and the copy subsequently read the shared origin pages; the first
// write on either side copies the page privately.
func (t *Task) CopyRegion(th *sim.Thread, name string, srcVA uint32) uint32 {
	e := t.find(srcVA)
	if e == nil {
		panic(fmt.Sprintf("vm: CopyRegion of unmapped address %#x", srcVA))
	}
	ps := uint32(t.kernel.machine.PageSize())
	if !e.cow {
		// Convert the source to COW: its object becomes the shared,
		// now-immutable origin; the source reads through it and writes
		// into a fresh private shadow.
		shadow := t.kernel.NewObject(e.obj.name+"+shadow", e.length)
		shadow.refs = 1
		e.origin = e.obj
		e.originOff = e.objOff
		e.obj = shadow
		e.objOff = 0
		e.cow = true
		// Existing writable hardware mappings must fault on the next
		// write: reduce privileges (§2.1).
		t.pm.Protect(th, e.start, e.length, mmu.ProtRead)
	} else {
		// Copy of a copy: flatten by pushing the source's private pages
		// into a fresh origin? Keeping chains one level deep is enough
		// here: the existing origin is shared again, and source-private
		// pages are duplicated eagerly below.
	}
	// The new region shares the origin.
	e.origin.refs++
	newShadow := t.kernel.NewObject(name, e.length)
	va := t.Map(name, newShadow, 0, e.length, e.prot)
	ne := t.find(va)
	ne.cow = true
	ne.origin = e.origin
	ne.originOff = e.originOff
	ne.hint = e.hint
	ne.home = e.home
	// Pages the source has already privatized are not in the origin:
	// duplicate them eagerly so the copy sees the source's current view.
	for i := 0; i < int(e.length/ps); i++ {
		ss := &e.obj.slots[int(e.objOff/ps)+i]
		if ss.pg == nil && ss.backing == nil {
			continue
		}
		src := t.kernel.materialize(th, e, e.obj, int(e.objOff/ps)+i)
		pg := t.kernel.newPage(th)
		pg.SetHint(ne.hint)
		t.kernel.pm.CopyPage(th, src, pg, 0)
		newShadow.slots[i].pg = pg
		t.kernel.fifo = append(t.kernel.fifo, fifoRef{newShadow, i})
		t.kernel.stats.COWCopies++
	}
	return va
}

// destroyObject frees every page of an unreferenced object.
func (k *Kernel) destroyObject(th *sim.Thread, o *Object) {
	for i := range o.slots {
		if pg := o.slots[i].pg; pg != nil {
			tag := k.pm.FreePage(th, pg)
			k.pm.FreePageSync(tag)
			o.slots[i].pg = nil
		}
		o.slots[i].backing = nil
	}
	o.freed = true
}

// Protect changes the protection of the region containing va (the Mach
// vm_protect). Existing stricter hardware mappings are tightened; loosening
// takes effect lazily via faults.
func (t *Task) Protect(th *sim.Thread, va uint32, prot mmu.Prot) {
	e := t.find(va)
	if e == nil {
		panic(fmt.Sprintf("vm: Protect of unmapped address %#x", va))
	}
	e.prot = prot
	if prot == mmu.ProtNone {
		t.pm.Remove(th, e.start, e.length)
		return
	}
	t.pm.Protect(th, e.start, e.length, prot)
}

// SetHint attaches a placement pragma (§4.3) to the region containing va.
// It applies to pages already resident and to pages created later.
func (t *Task) SetHint(va uint32, hint numa.Hint) {
	e := t.find(va)
	if e == nil {
		panic(fmt.Sprintf("vm: SetHint of unmapped address %#x", va))
	}
	e.hint = hint
	t.eachResident(e, func(pg *numa.Page) { pg.SetHint(hint) })
}

// SetHome attaches the §4.4 remote-placement pragma to the region
// containing va: the region is hinted remote with the given home
// processor.
func (t *Task) SetHome(va uint32, proc int) {
	e := t.find(va)
	if e == nil {
		panic(fmt.Sprintf("vm: SetHome of unmapped address %#x", va))
	}
	if proc < 0 || proc >= t.kernel.machine.NProc() {
		panic(fmt.Sprintf("vm: SetHome with bad processor %d", proc))
	}
	e.hint = numa.HintRemote
	e.home = proc
	t.eachResident(e, func(pg *numa.Page) {
		pg.SetHint(numa.HintRemote)
		pg.SetHome(proc)
	})
}

// eachResident applies fn to every resident page of a region.
func (t *Task) eachResident(e *Entry, fn func(*numa.Page)) {
	ps := uint32(t.kernel.machine.PageSize())
	first := int(e.objOff / ps)
	for i := 0; i < int(e.length/ps); i++ {
		if pg := e.obj.slots[first+i].pg; pg != nil {
			fn(pg)
		}
	}
}

// find locates the entry containing va, or nil. The binary search over
// entries (sorted by end address) is open-coded: a sort.Search closure
// would escape and allocate on every fault.
func (t *Task) find(va uint32) *Entry {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].End() > va {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(t.entries) && va >= t.entries[lo].start {
		return t.entries[lo]
	}
	return nil
}

// EntryAt returns the region containing va, or nil.
func (t *Task) EntryAt(va uint32) *Entry { return t.find(va) }

// Fault resolves a page fault taken by processor proc in this task. It is
// called by Context on translation misses, and by tests directly. With a
// trace sink attached it brackets the handling in fault-enter/fault-exit
// events; the exit event's duration is the virtual time the fault
// consumed.
//
//numalint:hotpath
func (k *Kernel) Fault(th *sim.Thread, task *Task, proc int, va uint32, write bool) error {
	bus := k.machine.Bus()
	if !bus.Enabled() {
		return k.fault(th, task, proc, va, write)
	}
	wr := int64(0)
	if write {
		wr = 1
	}
	bus.Emit(simtrace.Event{
		Kind: simtrace.KindFaultEnter, Proc: int32(proc), Thread: int32(th.ID()),
		Time: int64(th.Clock()), Page: -1, Arg: int64(va), Arg2: wr,
	})
	t0 := th.Clock()
	err := k.fault(th, task, proc, va, write)
	bus.Emit(simtrace.Event{
		Kind: simtrace.KindFaultExit, Proc: int32(proc), Thread: int32(th.ID()),
		Time: int64(th.Clock()), Dur: int64(th.Clock() - t0), Page: -1,
		Arg: int64(va), Arg2: wr,
	})
	return err
}

// fault is the uninstrumented fault handler.
func (k *Kernel) fault(th *sim.Thread, task *Task, proc int, va uint32, write bool) error {
	cost := k.machine.Cost()
	th.AdvanceSys(cost.FaultBase)
	k.machine.Proc(proc).Faults++

	e := task.find(va)
	if e == nil {
		return ErrNoMapping
	}
	if write && !e.prot.CanWrite() {
		return ErrProtection
	}
	ps := uint32(k.machine.PageSize())
	idx := int((va - e.start + e.objOff) / ps)
	if e.cow {
		return k.faultCOW(th, task, e, proc, va, idx, write)
	}
	pg := k.materialize(th, e, e.obj, idx)
	minProt := mmu.ProtRead
	if write {
		minProt = mmu.ProtWrite
	}
	task.pm.Enter(th, proc, va, pg, e.prot, minProt)
	return nil
}

// faultCOW resolves a fault on a copy-on-write region: reads before the
// first write go to the shared origin page, provisionally mapped
// read-only; the first write copies the origin page into the entry's
// private shadow ("Mach may reduce privileges to implement copy-on-write",
// §2.1).
func (k *Kernel) faultCOW(th *sim.Thread, task *Task, e *Entry, proc int, va uint32, idx int, write bool) error {
	originIdx := idx - int(e.objOff/uint32(k.machine.PageSize())) + int(e.originOff/uint32(k.machine.PageSize()))
	s := &e.obj.slots[idx]
	if s.pg == nil && s.backing == nil {
		//numalint:coldpath first touch: COW read-through or copy break, once per shadow page
		if !write {
			// Read through the origin; cap the mapping at read-only so the
			// first write still faults.
			src := k.materialize(th, e, e.origin, originIdx)
			task.pm.Enter(th, proc, va, src, mmu.ProtRead, mmu.ProtRead)
			k.stats.COWReads++
			return nil
		}
		// First write: break the sharing by copying the origin page into
		// the shadow (skipping the copy when the origin was never touched).
		pg := k.newPage(th)
		pg.SetHint(e.hint)
		if e.home >= 0 {
			pg.SetHome(e.home)
		}
		os := &e.origin.slots[originIdx]
		if os.pg != nil || os.backing != nil {
			src := k.materialize(th, e, e.origin, originIdx)
			k.pm.CopyPage(th, src, pg, proc)
			k.stats.COWCopies++
		} else {
			k.stats.ZeroFillFaults++
		}
		s.pg = pg
		k.fifo = append(k.fifo, fifoRef{e.obj, idx})
	}
	pg := k.materialize(th, e, e.obj, idx)
	minProt := mmu.ProtRead
	if write {
		minProt = mmu.ProtWrite
	}
	task.pm.Enter(th, proc, va, pg, e.prot, minProt)
	return nil
}

// materialize returns the resident logical page at obj[idx], paging it in
// or creating it zero-filled as needed.
func (k *Kernel) materialize(th *sim.Thread, e *Entry, obj *Object, idx int) *numa.Page {
	s := &obj.slots[idx]
	if s.pg == nil {
		//numalint:coldpath first touch: pagein or zero-fill materialization, once per resident page
		if s.backing != nil {
			k.pagein(th, obj, idx)
		} else {
			s.pg = k.newPage(th)
			s.pg.SetHint(e.hint)
			if e.home >= 0 {
				s.pg.SetHome(e.home)
			}
			k.stats.ZeroFillFaults++
			k.fifo = append(k.fifo, fifoRef{obj, idx})
		}
	}
	return s.pg
}

// newPage allocates a logical page, paging out victims as needed.
func (k *Kernel) newPage(th *sim.Thread) *numa.Page {
	for {
		pg, err := k.nm.NewPage()
		if err == nil {
			return pg
		}
		var full *mem.ErrNoFrames
		if !errors.As(err, &full) {
			panic(err)
		}
		if !k.pageoutOne(th) {
			panic("vm: out of memory and nothing to page out")
		}
	}
}

// pageoutOne evicts the oldest resident page to backing store. It reports
// false when no page is evictable.
func (k *Kernel) pageoutOne(th *sim.Thread) bool {
	for len(k.fifo) > 0 {
		ref := k.fifo[0]
		k.fifo = k.fifo[1:]
		s := &ref.obj.slots[ref.idx]
		if ref.obj.freed || s.pg == nil {
			continue // stale queue entry
		}
		pg := s.pg
		// Quiesce: sync dirty copies, drop all replicas and mappings.
		k.pm.RemoveAll(th, pg)
		// Write the page to backing store at global-memory read speed.
		var data []byte
		if n := len(k.bufPool); n > 0 {
			data = k.bufPool[n-1]
			k.bufPool = k.bufPool[:n-1]
		} else {
			data = make([]byte, k.machine.PageSize())
		}
		copy(data, pg.GlobalFrame().Data())
		spec := k.machine.Spec()
		th.AdvanceSys(sim.Time(k.machine.PageSize()/4) * spec.FetchLatency(0, spec.NNodes()))
		s.backing = data
		tag := k.pm.FreePage(th, pg)
		k.pm.FreePageSync(tag)
		s.pg = nil
		k.stats.Pageouts++
		if bus := k.machine.Bus(); bus.Enabled() {
			bus.Emit(simtrace.Event{
				Kind: simtrace.KindPressure, Proc: -1, Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: pg.ID(),
				Arg: int64(k.machine.Memory().Global().Free()), Label: "pageout",
			})
		}
		return true
	}
	return false
}

// pagein brings a paged-out page back from backing store. The page's NUMA
// placement state starts over, which is the only occasion on which a
// pinning decision is reconsidered (§4.3 footnote 4).
func (k *Kernel) pagein(th *sim.Thread, obj *Object, idx int) {
	s := &obj.slots[idx]
	var frame *mem.Frame
	for {
		f, err := k.machine.Memory().Global().Alloc()
		if err == nil {
			frame = f
			break
		}
		if !k.pageoutOne(th) {
			panic("vm: out of memory during pagein")
		}
	}
	copy(frame.Data(), s.backing)
	spec := k.machine.Spec()
	th.AdvanceSys(sim.Time(k.machine.PageSize()/4) * spec.StoreLatency(0, spec.NNodes()))
	k.bufPool = append(k.bufPool, s.backing)
	s.backing = nil
	s.pg = k.nm.AdoptPage(frame)
	k.fifo = append(k.fifo, fifoRef{obj, idx})
	k.stats.Pageins++
}

// maxFaultRetries bounds the translate-fault-retry loop of a single access.
const maxFaultRetries = 4

// Context is one simulated thread's view of memory: it runs in a task on a
// processor, issuing loads and stores against virtual addresses and
// charging virtual time for each reference and for counted instruction
// work.
type Context struct {
	kernel *Kernel
	task   *Task
	th     *sim.Thread
	proc   int

	// Hot-path caches: every Load/Store goes through these, so the
	// indirections through kernel, machine and task are resolved once here
	// (and again on migration) instead of per reference.
	mach     *ace.Machine
	hw       *mmu.MMU   // current processor's MMU
	row      ace.Row    // current processor's charge row
	pm       *pmap.Pmap // the task's pmap (for key composition)
	pageMask uint32     // PageSize-1, for offset extraction
	quantum  sim.Time   // the machine's scheduling quantum

	sliceEnd sim.Time
	// OnQuantum, if set, is invoked when the scheduling quantum expires,
	// instead of a plain yield. Schedulers use it to time-slice and (in the
	// no-affinity ablation) to migrate the thread.
	OnQuantum func(*Context)
}

// NewContext creates a context for thread th running in task on processor
// proc. The thread is bound to the processor's execution resource.
func NewContext(k *Kernel, task *Task, th *sim.Thread, proc int) *Context {
	th.Bind(k.machine.Proc(proc).Resource())
	return &Context{
		kernel:   k,
		task:     task,
		th:       th,
		proc:     proc,
		mach:     k.machine,
		hw:       k.machine.MMU(proc),
		row:      k.machine.Proc(proc).Row(),
		pm:       task.pm,
		pageMask: uint32(k.machine.PageSize() - 1),
		quantum:  k.machine.Config().Quantum,
	}
}

// Kernel returns the kernel this context runs on.
func (c *Context) Kernel() *Kernel { return c.kernel }

// Task returns the context's task.
func (c *Context) Task() *Task { return c.task }

// Thread returns the underlying simulated thread.
func (c *Context) Thread() *sim.Thread { return c.th }

// Proc returns the processor the context currently runs on.
func (c *Context) Proc() int { return c.proc }

// MigrateTo moves the context (and its thread) to another processor.
func (c *Context) MigrateTo(proc int) {
	if proc == c.proc {
		return
	}
	c.proc = proc
	c.hw = c.mach.MMU(proc)
	c.row = c.mach.Proc(proc).Row()
	c.th.Bind(c.mach.Proc(proc).Resource())
}

// MigrateWithPages moves the context to another processor and takes the
// task's local-writable pages owned by the old processor along — the
// paper's §4.7 prescription for load balancing long-lived compute-bound
// applications ("migrate processes to new homes and move their local
// pages with them"). In a task with several threads on the old processor
// this is a blunt instrument (page-to-thread attribution does not exist,
// which is presumably why the paper left it as future work); callers use
// it for single-threaded tasks or whole-task moves. It returns the number
// of pages moved.
func (c *Context) MigrateWithPages(proc int) int {
	if proc == c.proc {
		return 0
	}
	old := c.proc
	c.MigrateTo(proc)
	moved := 0
	ps := uint32(c.mach.PageSize())
	oldNode := c.mach.Home(old)
	newNode := c.mach.Home(proc)
	for _, e := range c.task.entries {
		for i := range e.obj.slots {
			pg := e.obj.slots[i].pg
			if pg == nil || pg.State() != numa.LocalWritable || pg.Owner() != oldNode {
				continue
			}
			c.kernel.nm.MigrateOwner(c.th, pg, proc)
			if pg.Owner() != newNode {
				continue
			}
			moved++
			// Re-establish the translation at the new home so the thread
			// resumes without even a mapping fault.
			off := uint32(i) * ps
			if off >= e.objOff && off-e.objOff < e.length && e.prot.CanWrite() {
				va := e.start + (off - e.objOff)
				c.task.pm.Enter(c.th, proc, va, pg, e.prot, mmu.ProtWrite)
			}
		}
	}
	return moved
}

// tick yields the processor when the scheduling quantum has expired.
func (c *Context) tick() {
	if c.th.Clock() < c.sliceEnd {
		return
	}
	c.quantumExpired()
}

// quantumExpired handles the end of a scheduling slice: the clock tick
// drives kernel daemons (the NUMA manager's reconsider sweep) as a timer
// interrupt would, then yields (or runs the scheduler's OnQuantum hook)
// and starts the next slice.
//
//numalint:coldpath quantum rollover: runs once per scheduling slice, not per reference
func (c *Context) quantumExpired() {
	c.kernel.nm.MaybeSweep(c.th)
	if c.OnQuantum != nil {
		c.OnQuantum(c)
	} else {
		c.th.Yield()
	}
	c.sliceEnd = c.th.Clock() + c.quantum
}

// translate resolves va for an access, faulting as needed: the MMU's
// Translate, then the kernel's fault handler until the translation holds.
// The reference path probes the TLB itself and calls translate only when
// the probe fails.
func (c *Context) translate(va uint32, write bool) *mem.Frame {
	key := c.pm.Key(va)
	if f := c.hw.Translate(key, write); f != nil {
		return f
	}
	for i := 0; i < maxFaultRetries; i++ {
		if err := c.kernel.Fault(c.th, c.task, c.proc, va, write); err != nil {
			panic(&AccessError{VA: va, Write: write, Err: err})
		}
		if f := c.hw.Translate(key, write); f != nil {
			return f
		}
	}
	panic(&AccessError{VA: va, Write: write, Err: errors.New("fault loop did not converge")})
}

// refFetch is the folded translate+trace+charge path for one 32-bit read.
// On a TLB hit the probe inlines, and so does the charge to the cached
// row, so a read from a column the row does not route (every column on
// an uncontended machine, the home node on a contended one) calls
// nothing below refFetch. Only a routed read calls the machine, which
// adds any link queueing.
func (c *Context) refFetch(va uint32) *mem.Frame {
	f := c.hw.Probe(c.pm.Key(va), mmu.ProtRead)
	if f == nil {
		f = c.translate(va, false)
	}
	if c.kernel.RefTrace != nil {
		//numalint:coldpath instrumentation: the reference-trace hook is nil outside trace captures
		c.kernel.RefTrace(c.proc, va, false)
	}
	if c.row.Fetch(c.th, f) {
		c.mach.ChargeLink(c.th, c.proc, f)
	}
	return f
}

// refStore is refFetch for one 32-bit write.
func (c *Context) refStore(va uint32) *mem.Frame {
	f := c.hw.Probe(c.pm.Key(va), mmu.ProtWrite)
	if f == nil {
		f = c.translate(va, true)
	}
	if c.kernel.RefTrace != nil {
		//numalint:coldpath instrumentation: the reference-trace hook is nil outside trace captures
		c.kernel.RefTrace(c.proc, va, true)
	}
	if c.row.Store(c.th, f) {
		c.mach.ChargeLink(c.th, c.proc, f)
	}
	return f
}

// refUpdate is the folded path for an atomic read-modify-write of the
// 32-bit word at va: it translates for writing, traces one write, and
// charges one fetch and then one store.
func (c *Context) refUpdate(va uint32) *mem.Frame {
	f := c.hw.Probe(c.pm.Key(va), mmu.ProtWrite)
	if f == nil {
		f = c.translate(va, true)
	}
	if c.kernel.RefTrace != nil {
		//numalint:coldpath instrumentation: the reference-trace hook is nil outside trace captures
		c.kernel.RefTrace(c.proc, va, true)
	}
	if c.row.Fetch(c.th, f) {
		c.mach.ChargeLink(c.th, c.proc, f)
	}
	if c.row.Store(c.th, f) {
		c.mach.ChargeLink(c.th, c.proc, f)
	}
	return f
}

// Load32 loads the 32-bit word at va.
//
//numalint:hotpath
func (c *Context) Load32(va uint32) uint32 {
	f := c.refFetch(va)
	v := f.Load32(int(va & c.pageMask))
	c.tick()
	return v
}

// Store32 stores a 32-bit word at va.
//
//numalint:hotpath
func (c *Context) Store32(va uint32, v uint32) {
	f := c.refStore(va)
	f.Store32(int(va&c.pageMask), v)
	c.tick()
}

// Load8 loads the byte at va (charged as one reference, as on the ROMP).
//
//numalint:hotpath
func (c *Context) Load8(va uint32) byte {
	f := c.refFetch(va)
	v := f.Load8(int(va & c.pageMask))
	c.tick()
	return v
}

// Store8 stores the byte at va.
//
//numalint:hotpath
func (c *Context) Store8(va uint32, v byte) {
	f := c.refStore(va)
	f.Store8(int(va&c.pageMask), v)
	c.tick()
}

// Load64 loads the 64-bit word at va, charged as two 32-bit references.
// The address must not cross a page boundary.
//
//numalint:hotpath
func (c *Context) Load64(va uint32) uint64 {
	c.checkSpan(va, 8)
	f := c.refFetch(va)
	if c.kernel.RefTrace != nil {
		//numalint:coldpath instrumentation: the reference-trace hook is nil outside trace captures
		c.kernel.RefTrace(c.proc, va+4, false)
	}
	if c.row.Fetch(c.th, f) {
		c.mach.ChargeLink(c.th, c.proc, f)
	}
	v := f.Load64(int(va & c.pageMask))
	c.tick()
	return v
}

// Store64 stores a 64-bit word at va, charged as two 32-bit references.
//
//numalint:hotpath
func (c *Context) Store64(va uint32, v uint64) {
	c.checkSpan(va, 8)
	f := c.refStore(va)
	if c.kernel.RefTrace != nil {
		//numalint:coldpath instrumentation: the reference-trace hook is nil outside trace captures
		c.kernel.RefTrace(c.proc, va+4, true)
	}
	if c.row.Store(c.th, f) {
		c.mach.ChargeLink(c.th, c.proc, f)
	}
	f.Store64(int(va&c.pageMask), v)
	c.tick()
}

// LoadF64 loads the float64 at va.
//
//numalint:hotpath
func (c *Context) LoadF64(va uint32) float64 {
	return math.Float64frombits(c.Load64(va))
}

// StoreF64 stores a float64 at va.
//
//numalint:hotpath
func (c *Context) StoreF64(va uint32, v float64) {
	c.Store64(va, math.Float64bits(v))
}

func (c *Context) checkSpan(va uint32, n int) {
	if int(va&c.pageMask)+n > int(c.pageMask)+1 {
		panic(&AccessError{VA: va, Err: errors.New("access crosses page boundary")})
	}
}

// TestAndSet atomically reads the word at va and stores 1 into it,
// returning the old value. It charges one fetch and one store and, unlike
// a Load32/Store32 pair, cannot be preempted between them — the primitive
// spin locks are built from.
//
//numalint:hotpath
func (c *Context) TestAndSet(va uint32) uint32 {
	f := c.refUpdate(va)
	off := int(va & c.pageMask)
	old := f.Load32(off)
	f.Store32(off, 1)
	c.tick()
	return old
}

// FetchOr32 atomically ORs bits into the word at va and returns the old
// value, charged as one fetch plus one store (the sieve's
// "fetching and storing as it masks off bits").
//
//numalint:hotpath
func (c *Context) FetchOr32(va uint32, bits uint32) uint32 {
	f := c.refUpdate(va)
	off := int(va & c.pageMask)
	old := f.Load32(off)
	f.Store32(off, old|bits)
	c.tick()
	return old
}

// Compute charges n simple ALU/register instructions of user time.
func (c *Context) Compute(n int) {
	c.th.Advance(sim.Time(n) * c.mach.Cost().Instr)
	c.tick()
}

// Mul charges n integer multiplies (software multiply on the ROMP).
func (c *Context) Mul(n int) {
	c.th.Advance(sim.Time(n) * c.mach.Cost().Mul)
	c.tick()
}

// Div charges n integer divides ("division is expensive on the ACE").
func (c *Context) Div(n int) {
	c.th.Advance(sim.Time(n) * c.mach.Cost().Div)
	c.tick()
}

// FAdd charges n floating additions/subtractions.
func (c *Context) FAdd(n int) {
	c.th.Advance(sim.Time(n) * c.mach.Cost().FAdd)
	c.tick()
}

// FMul charges n floating multiplications.
func (c *Context) FMul(n int) {
	c.th.Advance(sim.Time(n) * c.mach.Cost().FMul)
	c.tick()
}

// FDiv charges n floating divisions.
func (c *Context) FDiv(n int) {
	c.th.Advance(sim.Time(n) * c.mach.Cost().FDiv)
	c.tick()
}

// Syscall models a Unix system call of roughly nInstr kernel instructions
// that reads and updates the user memory at each address in touches (as
// sigvec does with the handler structure). Under the kernel's UnixMaster
// mode the call executes on processor 0 — the "Unix Master" — so those
// user pages become writably shared with processor 0 and can end up in
// global memory, which is the effect the paper works around for sigvec,
// fstat and ioctl (§4.6).
func (c *Context) Syscall(nInstr int, touches ...uint32) {
	home := c.proc
	if c.kernel.UnixMaster && home != 0 {
		c.MigrateTo(0)
	}
	c.th.AdvanceSys(sim.Time(nInstr) * c.mach.Cost().Instr)
	for _, va := range touches {
		f := c.translate(va, true)
		m := c.mach
		m.ChargeFetch(c.th, c.proc, f)
		m.ChargeStore(c.th, c.proc, f)
		off := int(va & c.pageMask)
		f.Store32(off, f.Load32(off))
	}
	if c.proc != home {
		c.MigrateTo(home)
	}
	c.tick()
}
