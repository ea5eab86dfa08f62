// Package mem models the physical memories of a two-level NUMA machine:
// one global memory reachable by every processor over the shared bus, and
// one local memory per processor module (§2.2 of the paper).
//
// Memory is divided into page frames. Frames carry real page contents so
// that the NUMA manager's migration, replication, sync and flush operations
// move actual data; tests exploit this to prove that the consistency
// protocol never loses or duplicates writes.
//
// A frame may share another frame's bytes instead of copying them
// (ShareFrom), as the manager's read replicas do. The sharing is
// copy-on-write: the first store to either side copies the bytes first,
// and Zero, CopyFrom and Release leave every other frame's contents
// alone. So every frame still behaves as if it held its own copy, and the
// lost-write checks keep their force.
//
// A frame's own bytes come from the heap on its first store, or, in a
// memory that Map was called on and that has made more than a few frames,
// from the memory's one anonymous mapping, which Close releases all at
// once (see Memory.Map).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Kind distinguishes the two levels of the memory hierarchy.
type Kind uint8

// Frame kinds.
const (
	Global Kind = iota // shared memory on the IPC bus
	Local              // memory on one processor module
)

func (k Kind) String() string {
	switch k {
	case Global:
		return "global"
	case Local:
		return "local"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Frame is one physical page frame. Its contents are allocated lazily on
// first store, so large sparsely-touched memories are cheap to model. A
// frame made from a memory's mapping gets its slot as its buffer but
// reads nothing until its first store, so the slot takes no host page
// before then.
//
// A frame may borrow another frame's bytes. The lender counts its
// borrowers and gives its buffer up to them while it lends, so a store to
// either side copies the bytes first: a borrower into the buffer it kept,
// a lender into a new one. A borrow ends when the borrower is released,
// zeroed, or copied or shared into, and when a frame copies or shares
// from a borrower that has stored since it borrowed. When a lender's last
// borrow ends, it gets its buffer back, so a frame keeps one buffer
// across reuse.
type Frame struct {
	data      []byte // the bytes loads read: buf, or the bytes it borrows or lends; nil reads as zeros
	buf       []byte // the frame's own buffer, if it has one it does not lend; nil, or an untouched slot, while data is nil
	lender    *Frame // the frame this one borrowed its bytes from; nil if none
	index     int32  // position within its pool
	pageSize  int32
	proc      int16 // owning node for Local frames; -1 for Global
	borrowers int16 // frames whose borrow from this one has not ended
	kind      Kind
	inUse     bool
	writable  bool // data is buf and no other frame reads it
}

// Kind reports which level of the hierarchy the frame belongs to.
//
//numalint:hotpath
func (f *Frame) Kind() Kind { return f.kind }

// Proc reports the node owning a local frame, or -1 for global frames.
// (On the ACE node == processor, hence the name.)
//
//numalint:hotpath
func (f *Frame) Proc() int { return int(f.proc) }

// Index reports the frame's position within its pool.
//
//numalint:hotpath
func (f *Frame) Index() int { return int(f.index) }

// String identifies the frame for diagnostics.
func (f *Frame) String() string {
	if f.kind == Global {
		return fmt.Sprintf("global[%d]", f.index)
	}
	return fmt.Sprintf("local%d[%d]", f.proc, f.index)
}

// Data returns the frame's bytes for writing. A frame that cannot write
// them in place (untouched, lending or borrowing) first copies the bytes
// it reads into its own buffer.
//
//numalint:hotpath
func (f *Frame) Data() []byte {
	if !f.writable {
		//numalint:coldpath copy-on-write: a frame's first store, or its first since it lent or borrowed its bytes
		if f.buf == nil {
			f.buf = make([]byte, f.pageSize)
		}
		copy(f.buf, f.data)
		f.data, f.writable = f.buf, true
	}
	return f.data
}

// endBorrow ends f's borrow, if any. When the lender's last borrow ends
// and it still reads the bytes it lent, it gets its buffer back.
func (f *Frame) endBorrow() {
	l := f.lender
	if l == nil {
		return
	}
	f.lender = nil
	l.borrowers--
	if l.borrowers == 0 && l.lender == nil && l.buf == nil && l.data != nil {
		l.buf, l.writable = l.data, true
	}
}

// own ends f's borrow and makes its own buffer, if it has one, the bytes
// it reads, without copying what it read before. A frame that reads
// nothing goes on reading nothing, so an untouched slot stays untouched.
func (f *Frame) own() {
	f.endBorrow()
	if !f.writable && f.data != nil {
		f.data, f.writable = f.buf, f.buf != nil
	}
}

// shares reports whether f and g read one buffer.
func (f *Frame) shares(g *Frame) bool {
	return f.data != nil && g.data != nil && &f.data[0] == &g.data[0]
}

// checkSize panics unless src has f's page size.
func (f *Frame) checkSize(src *Frame) {
	if src.pageSize != f.pageSize {
		panic(fmt.Sprintf("mem: copy between mismatched page sizes %d and %d", src.pageSize, f.pageSize))
	}
}

// Zero clears the frame's contents and ends any borrow. A frame that
// lends drops the shared bytes instead of clearing them, and one that
// reads nothing clears nothing.
//
//numalint:hotpath
func (f *Frame) Zero() {
	f.own()
	clear(f.data)
}

// CopyFrom copies the full page contents of src into f, ending f's
// borrow. Copying from a borrower of f that no longer reads f's bytes
// ends that borrow first, so a lender whose last borrower it was copies
// into the buffer it takes back instead of allocating one: this is the
// sync of an owner copy that began as a replica. Copying between frames
// that read one buffer changes no byte and keeps the sharing.
//
//numalint:hotpath
func (f *Frame) CopyFrom(src *Frame) {
	f.checkSize(src)
	switch {
	case src.data == nil:
		f.Zero()
	case f.shares(src):
	default:
		if src.lender == f && src.writable {
			src.endBorrow()
		}
		f.own()
		copy(f.Data(), src.data)
	}
}

// ShareFrom makes f read src's bytes without copying them, ending f's own
// borrow. f borrows the bytes from src, or from src's lender if src reads
// them from there. A store to either side then copies them first.
//
//numalint:hotpath
func (f *Frame) ShareFrom(src *Frame) {
	f.checkSize(src)
	switch {
	case src.data == nil:
		f.Zero()
	case f.shares(src):
	default:
		// End f's borrow and stop f reading what it borrowed before src
		// lends. If f was src's last borrower, src then takes its buffer
		// back before lending it; and if src borrows from f, ending that
		// borrow below cannot hand f the bytes f borrowed as its buffer.
		f.own()
		if src.writable {
			// src reads its own buffer, so any borrow it has is moot:
			// end it, and lend the buffer.
			src.endBorrow()
			src.buf, src.writable = nil, false
		}
		l := src
		if src.lender != nil {
			l = src.lender
		}
		if l.borrowers == math.MaxInt16 {
			panic(fmt.Sprintf("mem: frame %s already lends to %d frames", l, l.borrowers))
		}
		if l != f { // else f takes back the bytes it lent src
			f.lender = l
			l.borrowers++
		}
		f.data, f.writable = src.data, false
	}
}

// Equal reports whether f and g hold the same contents. Frames that read
// one buffer compare without reading it.
func (f *Frame) Equal(g *Frame) bool {
	if f.shares(g) {
		return true
	}
	a, b := f.data, g.data
	if a == nil {
		a, b = b, a
	}
	if b == nil {
		return a == nil || len(bytes.TrimLeft(a, "\x00")) == 0
	}
	return bytes.Equal(a, b)
}

// checkOff panics unless [off, off+size) lies inside the frame. One
// unsigned compare covers both ends, since a negative off converts to a
// huge uint, and the pool's minimum page size keeps pageSize-size from
// going negative. The message is formatted only when the panic is, so
// checkOff and the six accessors built on it inline.
func (f *Frame) checkOff(off, size int) {
	if uint(off) > uint(int(f.pageSize)-size) {
		panic(&boundsError{f, off, size})
	}
}

// boundsError is the panic value of an access outside a frame.
type boundsError struct {
	f         *Frame
	off, size int
}

func (e *boundsError) Error() string {
	return fmt.Sprintf("mem: access [%d,%d) outside %d-byte frame %s", e.off, e.off+e.size, e.f.pageSize, e.f)
}

// Load32 reads the 32-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Load32(off int) uint32 {
	f.checkOff(off, 4)
	if f.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(f.data[off:])
}

// Store32 writes the 32-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Store32(off int, v uint32) {
	f.checkOff(off, 4)
	binary.LittleEndian.PutUint32(f.Data()[off:], v)
}

// Load64 reads the 64-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Load64(off int) uint64 {
	f.checkOff(off, 8)
	if f.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f.data[off:])
}

// Store64 writes the 64-bit word at byte offset off.
//
//numalint:hotpath
func (f *Frame) Store64(off int, v uint64) {
	f.checkOff(off, 8)
	binary.LittleEndian.PutUint64(f.Data()[off:], v)
}

// Load8 reads the byte at offset off.
//
//numalint:hotpath
func (f *Frame) Load8(off int) byte {
	f.checkOff(off, 1)
	if f.data == nil {
		return 0
	}
	return f.data[off]
}

// Store8 writes the byte at offset off.
//
//numalint:hotpath
func (f *Frame) Store8(off int, v byte) {
	f.checkOff(off, 1)
	f.Data()[off] = v
}

// ErrNoFrames is returned when a pool is exhausted.
type ErrNoFrames struct {
	Pool string
}

func (e *ErrNoFrames) Error() string {
	return fmt.Sprintf("mem: no free frames in %s", e.Pool)
}

// Pool is a fixed-size pool of page frames at one level of the hierarchy.
// A frame's record is made on its first allocation, so a pool costs only
// the frames its run touches: a released frame is handed out again LIFO,
// and otherwise the lowest index never handed out is made.
type Pool struct {
	kind     Kind
	node     int // the node of a Local pool; -1 for Global
	pageSize int
	size     int
	made     int      // records made so far: frames [0, made)
	block    []Frame  // the current block's records not yet made
	free     []*Frame // LIFO list of released frames
	reg      *region  // the memory's mapping, once Map has been called; nil for heap buffers
	base     int      // the offset of frame 0's slot in reg
}

// firstBlock is the number of records the first block holds; each later
// block doubles the one before it.
const firstBlock = 64

// maxAccess is the widest frame access, Load64 and Store64's 8 bytes; a
// page holds at least one.
const maxAccess = 8

// init sets p up as an empty pool of n frames of the given size, a power
// of two of at least maxAccess bytes. For a Local pool, node names the
// node it serves; a Global pool's node is -1. A frame holds its page size
// and index in 32 bits and its node in 16.
func (p *Pool) init(kind Kind, node, n, pageSize int) {
	if pageSize < maxAccess || pageSize > math.MaxInt32 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two from %d bytes to 1 GiB", pageSize, maxAccess))
	}
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("mem: frame count %d is negative or needs more than 31 bits", n))
	}
	if kind == Global {
		node = -1
	} else if node < 0 || node > math.MaxInt16 {
		panic(fmt.Sprintf("mem: node %d is negative or needs more than 15 bits", node))
	}
	*p = Pool{kind: kind, node: node, pageSize: pageSize, size: n}
}

// Name returns a human-readable pool name. A local pool's is formatted on
// each call, so building a memory formats nothing.
func (p *Pool) Name() string {
	if p.kind == Global {
		return "global memory"
	}
	return fmt.Sprintf("local memory of node%d", p.node)
}

// Size reports the total number of frames.
//
//numalint:hotpath
func (p *Pool) Size() int { return p.size }

// Free reports the number of unallocated frames.
//
//numalint:hotpath
func (p *Pool) Free() int { return p.size - p.made + len(p.free) }

// Alloc takes a frame from the pool. The frame's previous contents are
// undefined; callers that need zeroed memory must call Zero (the pmap layer
// does this lazily, per §2.3.1).
//
//numalint:hotpath
func (p *Pool) Alloc() (*Frame, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		f.inUse = true
		return f, nil
	}
	if p.made == p.size {
		//numalint:coldpath exhaustion: the caller falls back to reclaim or global memory
		return nil, &ErrNoFrames{Pool: p.Name()}
	}
	if len(p.block) == 0 {
		//numalint:coldpath growth: blocks double, so a pool of n frames grows O(log n) times
		n := min(p.made+firstBlock, p.size-p.made)
		p.block = make([]Frame, n)
		if p.reg != nil {
			p.reg.blocks = append(p.reg.blocks, p.block)
		}
		// The free list is empty here, and it never holds more than the
		// records made, so this capacity keeps Release allocation-free.
		p.free = make([]*Frame, 0, p.made+n)
	}
	f := &p.block[0]
	p.block = p.block[1:]
	*f = Frame{kind: p.kind, proc: int16(p.node), index: int32(p.made), pageSize: int32(p.pageSize), buf: p.slot(p.made), inUse: true}
	p.made++
	return f, nil
}

// slot returns the buffer of a new record for frame i: its slot of the
// memory's mapping, or nil for a heap buffer on first store. The first
// heapRecords records a mapped memory makes get heap buffers, and the
// next one makes the mapping.
func (p *Pool) slot(i int) []byte {
	r := p.reg
	if r == nil {
		return nil
	}
	if r.bytes == nil {
		if r.heapMade < heapRecords {
			r.heapMade++
			return nil
		}
		//numalint:coldpath the mapping is made or tried once, by the memory's first record past heapRecords
		r.mapOnce()
		if r.bytes == nil {
			return nil
		}
	}
	off := p.base + i*p.pageSize
	return r.bytes[off : off+p.pageSize : off+p.pageSize]
}

// Release returns a frame to the pool. A frame that borrows stops reading
// its lender's bytes; one that still lends cannot be released.
//
//numalint:hotpath
func (p *Pool) Release(f *Frame) {
	if f.kind != p.kind || int(f.proc) != p.node {
		panic(fmt.Sprintf("mem: frame %s released to wrong pool %s", f, p.Name()))
	}
	if !f.inUse {
		panic(fmt.Sprintf("mem: double free of frame %s", f))
	}
	if f.borrowers > 0 {
		panic(fmt.Sprintf("mem: frame %s released while %d frames borrow its bytes", f, f.borrowers))
	}
	f.own()
	f.inUse = false
	p.free = append(p.free, f) //numalint:coldpath bounded: Alloc grows the free list's capacity with each block of records
}

// Memory aggregates the global pool and the per-node local pools of a
// machine. On the two-level ACE every processor is its own node; multi-node
// topologies home several processors on one pool.
type Memory struct {
	global Pool
	local  []Pool // indexed, never ranged by value: callers hold *Pool
	closed bool
}

// NewMemory builds the physical memory of a machine with nnodes memory
// nodes, globalFrames frames of global memory and localFrames frames of
// local memory per node: the pools live in two allocations, whatever the
// node count. The page size must be a power of two of at least 8 bytes.
func NewMemory(nnodes, globalFrames, localFrames, pageSize int) *Memory {
	m := &Memory{local: make([]Pool, nnodes)}
	m.global.init(Global, -1, globalFrames, pageSize)
	for i := range m.local {
		m.local[i].init(Local, i, localFrames, pageSize)
	}
	return m
}

// Global returns the global memory pool.
//
//numalint:hotpath
func (m *Memory) Global() *Pool { return &m.global }

// Local returns node p's local memory pool.
//
//numalint:hotpath
func (m *Memory) Local(p int) *Pool { return &m.local[p] }

// region is the one anonymous mapping a mapped memory's frames keep their
// bytes in. Each pool's frames own consecutive slots of one page each,
// from the pool's base. The region holds no pointer back to the memory,
// so a mapped memory stays collectable like any other.
type region struct {
	bytes    []byte    // the mapping; nil until it is made, and after Close
	size     int       // the bytes all of the memory's pools need
	heapMade int       // records made with heap buffers before the mapping, up to heapRecords
	tried    bool      // whether the mapping was made or tried: it is tried once
	blocks   [][]Frame // every block of frame records made since Map, which Close walks
}

// heapRecords is how many frame records a mapped memory makes with heap
// buffers before it maps its region. A run that makes no more keeps its
// few pages on the heap, where each costs a make and not a first-touch
// page fault, and the mapping's system calls are never made: the
// tournament's short runs make 18 to 32 records each. A run that makes
// more, as a default-size Table 3 run does (up to 2,912), keeps all but
// the first heapRecords pages in the mapping.
const heapRecords = 64

// mapOnce makes the mapping on its first call. Where it cannot be made,
// bytes stays nil and frames keep heap buffers.
func (r *region) mapOnce() {
	if !r.tried {
		r.tried = true
		r.bytes = mapRegion(r.size)
	}
}

// Map makes the memory keep the bytes of the frame records it makes from
// now on in one anonymous mapping sized for all of its pools, instead of
// in heap buffers, so that Close can release them all at once. The first
// heapRecords records still get heap buffers, and the next one makes the
// mapping, so Map makes no system call, and a run that makes few frames
// makes none either. A frame's slot takes a host page only when the
// frame is first stored to. Only Close releases the mapping: a memory
// that is mapped must be closed. Where the mapping cannot be made (on
// systems other than Linux, or when the call fails), frames keep heap
// buffers. Map on a mapped or closed memory does nothing.
func (m *Memory) Map() {
	if m.global.reg != nil || m.closed {
		return
	}
	r := new(region)
	place := func(p *Pool) {
		p.reg, p.base = r, r.size
		if p.size > (math.MaxInt-r.size)/p.pageSize {
			r.tried = true // too large to map: heap buffers
		} else {
			r.size += p.size * p.pageSize
		}
	}
	place(&m.global)
	for i := range m.local {
		place(&m.local[i])
	}
}

// Close ends the use of a memory that Map was called on: every frame
// record made since Map reads zeros after it, with no borrow or loan, and
// the mapping, if one was made, is unmapped. A later store falls back to
// a heap buffer, so no frame can reach the unmapped bytes. Results read
// from frame contents must be read before Close. A second Close does
// nothing, and Close on a memory that was never mapped only marks it
// closed.
func (m *Memory) Close() {
	if m.closed {
		return
	}
	m.closed = true
	r := m.global.reg
	if r == nil {
		return
	}
	for _, b := range r.blocks {
		for i := range b {
			f := &b[i]
			f.data, f.buf, f.lender, f.borrowers, f.writable = nil, nil, nil, 0, false
		}
	}
	r.tried = true
	if r.bytes != nil {
		unmapRegion(r.bytes)
		r.bytes = nil
	}
}

// Closed reports whether Close has been called.
//
//numalint:api the tests of internal/metrics and internal/harness read it to prove that each run's memory is closed
func (m *Memory) Closed() bool { return m.closed }
