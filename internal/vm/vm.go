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

// Unwrap returns the fault's cause.
//
//numalint:api errors.Is and errors.As reach it through an anonymous interface; numasim.AccessError re-exports it, and the vm tests match ErrNoMapping and ErrProtection through it
func (e *AccessError) Unwrap() error { return e.Err }

// Stats counts VM-level events.
type Stats struct {
	ZeroFillFaults uint64
	Pageouts       uint64
	Pageins        uint64
}

// Object is a Mach VM object: a container of logical pages that address
// spaces map. Objects may be mapped by several tasks, which is how memory
// is shared.
type Object struct {
	name  string
	slots []slot
}

type slot struct {
	pg      *numa.Page
	backing []byte // paged-out contents; nil if never paged out
}

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
}

// Start returns the region's first virtual address.
func (e *Entry) Start() uint32 { return e.start }

// End returns the first address past the region.
func (e *Entry) End() uint32 { return e.start + e.length }

// Object returns the backing VM object.
func (e *Entry) Object() *Object { return e.obj }

// Task is a Mach task: an address space in which simulated threads run.
type Task struct {
	kernel  *Kernel
	pm      *pmap.Pmap
	entries []*Entry // sorted by start
	nextVA  uint32
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
//
//numalint:api BenchmarkFaultPath (numasim) and the vm tests TestHotPathZeroAlloc and TestHeatPathZeroAlloc tear a page's mappings out through its RemoveAll
func (k *Kernel) Pmap() *pmap.Manager { return k.pm }

// Stats returns a copy of the kernel's counters.
func (k *Kernel) Stats() Stats { return k.stats }

// NewTask creates an empty address space.
func (k *Kernel) NewTask() *Task {
	t := &Task{
		kernel: k,
		pm:     k.pm.Create(),
		nextVA: 0x0001_0000,
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
	return &Object{name: name, slots: make([]slot, n)}
}

// Kernel returns the kernel the task belongs to.
func (t *Task) Kernel() *Kernel { return t.kernel }

// Allocate creates an anonymous zero-filled region of size bytes with the
// given protection (the Mach vm_allocate) and returns its base address.
// Regions are separated by an unmapped guard page so that overruns fault.
func (t *Task) Allocate(name string, size uint32, prot mmu.Prot) uint32 {
	obj := t.kernel.NewObject(name, size)
	return t.Map(obj, 0, size, prot)
}

// Map maps length bytes of obj starting at byte offset objOff (page
// aligned) into the task (the Mach vm_map) and returns the base address.
func (t *Task) Map(obj *Object, objOff, length uint32, prot mmu.Prot) uint32 {
	ps := uint32(t.kernel.machine.PageSize())
	if objOff%ps != 0 {
		panic(fmt.Sprintf("vm: object offset %#x not page aligned", objOff))
	}
	if length == 0 {
		panic("vm: zero-length mapping")
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
	}
	t.entries = append(t.entries, e)
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].start < t.entries[j].start })
	t.nextVA = va + e.length + ps // guard page
	return va
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
	pg := k.materialize(th, proc, e, idx)
	minProt := mmu.ProtRead
	if write {
		minProt = mmu.ProtWrite
	}
	task.pm.Enter(th, proc, va, pg, e.prot, minProt)
	return nil
}

// materialize returns the resident logical page at index idx of e's
// object, paging it in or creating it zero-filled as needed, with e's
// placement pragma either way. proc is the faulting processor, which pays
// for any pagein or pageout.
func (k *Kernel) materialize(th *sim.Thread, proc int, e *Entry, idx int) *numa.Page {
	obj := e.obj
	s := &obj.slots[idx]
	if s.pg == nil {
		//numalint:coldpath first touch: pagein or zero-fill materialization, once per resident page
		if s.backing != nil {
			k.pagein(th, proc, obj, idx)
		} else {
			s.pg = k.newPage(th, proc)
			k.stats.ZeroFillFaults++
			k.fifo = append(k.fifo, fifoRef{obj, idx})
		}
		s.pg.SetHint(e.hint)
		if e.home >= 0 {
			s.pg.SetHome(e.home)
		}
	}
	return s.pg
}

// newPage allocates a logical page, paging out victims as needed.
func (k *Kernel) newPage(th *sim.Thread, proc int) *numa.Page {
	for {
		pg, err := k.nm.NewPage()
		if err == nil {
			return pg
		}
		var full *mem.ErrNoFrames
		if !errors.As(err, &full) {
			panic(err)
		}
		if !k.pageoutOne(th, proc) {
			panic("vm: out of memory and nothing to page out")
		}
	}
}

// pageoutOne evicts the oldest resident page to backing store, charging
// the write to processor proc. It reports false when no page is
// evictable.
func (k *Kernel) pageoutOne(th *sim.Thread, proc int) bool {
	for len(k.fifo) > 0 {
		ref := k.fifo[0]
		k.fifo = k.fifo[1:]
		s := &ref.obj.slots[ref.idx]
		if s.pg == nil {
			continue // stale queue entry
		}
		pg := s.pg
		// Quiesce: sync dirty copies, drop all replicas and mappings.
		k.pm.RemoveAll(th, pg)
		// Write the page to backing store: a fetch a word from the
		// global frame, priced from proc's charge row.
		var data []byte
		if n := len(k.bufPool); n > 0 {
			data = k.bufPool[n-1]
			k.bufPool = k.bufPool[:n-1]
		} else {
			data = make([]byte, k.machine.PageSize())
		}
		copy(data, pg.GlobalFrame().Data())
		k.machine.ChargePageSys(th, proc, pg.GlobalFrame(), nil)
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

// pagein brings a paged-out page back from backing store into a global
// frame, charging the write to processor proc. The page's NUMA placement
// state starts over, which is the only occasion on which a pinning
// decision is reconsidered (§4.3 footnote 4); its region's pragma does
// not, and materialize applies it again.
func (k *Kernel) pagein(th *sim.Thread, proc int, obj *Object, idx int) {
	s := &obj.slots[idx]
	var frame *mem.Frame
	for {
		f, err := k.machine.Memory().Global().Alloc()
		if err == nil {
			frame = f
			break
		}
		if !k.pageoutOne(th, proc) {
			panic("vm: out of memory during pagein")
		}
	}
	copy(frame.Data(), s.backing)
	k.machine.ChargePageSys(th, proc, nil, frame)
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
//numalint:api numasim.Context's byte load, beside Load32 and Load64; BenchmarkAccessor (numasim) and the vm accessor tests call it
func (c *Context) Load8(va uint32) byte {
	f := c.refFetch(va)
	v := f.Load8(int(va & c.pageMask))
	c.tick()
	return v
}

// Store8 stores the byte at va.
//
//numalint:hotpath
//numalint:api numasim.Context's byte store, beside Store32 and Store64; BenchmarkAccessor (numasim) and the vm accessor tests call it
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
func (c *Context) Compute(n int) { c.instr(n, c.mach.Cost().Instr) }

// Mul charges n integer multiplies (software multiply on the ROMP).
func (c *Context) Mul(n int) { c.instr(n, c.mach.Cost().Mul) }

// Div charges n integer divides ("division is expensive on the ACE").
func (c *Context) Div(n int) { c.instr(n, c.mach.Cost().Div) }

// FAdd charges n floating additions/subtractions.
func (c *Context) FAdd(n int) { c.instr(n, c.mach.Cost().FAdd) }

// FMul charges n floating multiplications.
func (c *Context) FMul(n int) { c.instr(n, c.mach.Cost().FMul) }

// FDiv charges n floating divisions.
func (c *Context) FDiv(n int) { c.instr(n, c.mach.Cost().FDiv) }

// instr charges n instructions of user time at cost each, then yields if
// the scheduling quantum has expired.
func (c *Context) instr(n int, cost sim.Time) {
	c.th.Advance(sim.Time(n) * cost)
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
		if c.row.Fetch(c.th, f) {
			c.mach.ChargeLink(c.th, c.proc, f)
		}
		if c.row.Store(c.th, f) {
			c.mach.ChargeLink(c.th, c.proc, f)
		}
		off := int(va & c.pageMask)
		f.Store32(off, f.Load32(off))
	}
	if c.proc != home {
		c.MigrateTo(home)
	}
	c.tick()
}
