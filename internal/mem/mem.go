// Package mem models the physical memories of a two-level NUMA machine:
// one global memory reachable by every processor over the shared bus, and
// one local memory per processor module (§2.2 of the paper).
//
// Memory is divided into page frames. Frames carry real page contents so
// that the NUMA manager's migration, replication, sync and flush operations
// move actual data; tests exploit this to prove that the consistency
// protocol never loses or duplicates writes.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Kind distinguishes the two levels of the memory hierarchy.
type Kind int

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
// first access, so large sparsely-touched memories are cheap to model.
type Frame struct {
	kind     Kind
	proc     int // owning processor for Local frames; -1 for Global
	index    int // position within its pool
	pageSize int
	data     []byte
	inUse    bool
}

// Kind reports which level of the hierarchy the frame belongs to.
//
//numalint:hotpath
func (f *Frame) Kind() Kind { return f.kind }

// Proc reports the node owning a local frame, or -1 for global frames.
// (On the ACE node == processor, hence the name.)
//
//numalint:hotpath
func (f *Frame) Proc() int { return f.proc }

// Index reports the frame's position within its pool.
//
//numalint:hotpath
func (f *Frame) Index() int { return f.index }

// PageSize reports the frame's size in bytes.
//
//numalint:hotpath
func (f *Frame) PageSize() int { return f.pageSize }

// InUse reports whether the frame is currently allocated.
func (f *Frame) InUse() bool { return f.inUse }

// String identifies the frame for diagnostics.
func (f *Frame) String() string {
	if f.kind == Global {
		return fmt.Sprintf("global[%d]", f.index)
	}
	return fmt.Sprintf("local%d[%d]", f.proc, f.index)
}

// Data returns the frame's backing bytes, allocating them zeroed on first
// use.
//
//numalint:hotpath
func (f *Frame) Data() []byte {
	if f.data == nil {
		//numalint:coldpath lazy first touch: each frame's backing bytes are allocated once
		f.data = make([]byte, f.pageSize)
	}
	return f.data
}

// Zero clears the frame's contents.
//
//numalint:hotpath
func (f *Frame) Zero() {
	if f.data == nil {
		// Never touched; already logically zero.
		return
	}
	clear(f.data)
}

// CopyFrom copies the full page contents of src into f.
//
//numalint:hotpath
func (f *Frame) CopyFrom(src *Frame) {
	if src.pageSize != f.pageSize {
		panic(fmt.Sprintf("mem: copy between mismatched page sizes %d and %d", src.pageSize, f.pageSize))
	}
	if src.data == nil {
		f.Zero()
		return
	}
	copy(f.Data(), src.data)
}

// Equal reports whether two frames hold identical contents.
func (f *Frame) Equal(other *Frame) bool {
	a, b := f.data, other.data
	switch {
	case a == nil && b == nil:
		return true
	case a == nil:
		return allZero(b)
	case b == nil:
		return allZero(a)
	default:
		return string(a) == string(b)
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func (f *Frame) checkOff(off, size int) {
	if off < 0 || off+size > f.pageSize {
		panic(fmt.Sprintf("mem: access [%d,%d) outside %d-byte frame %s", off, off+size, f.pageSize, f))
	}
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
	name     string
	kind     Kind
	proc     int
	pageSize int
	size     int
	made     int      // records made so far: frames [0, made)
	block    []Frame  // the current block's records not yet made
	free     []*Frame // LIFO list of released frames
}

// firstBlock is the number of records the first block holds; each later
// block doubles the one before it.
const firstBlock = 64

// NewPool creates a pool of n frames of the given size. For Local pools,
// proc names the owning processor; Global pools use proc -1.
func NewPool(kind Kind, proc, n, pageSize int) *Pool {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two", pageSize))
	}
	if n < 0 {
		panic(fmt.Sprintf("mem: negative frame count %d", n))
	}
	if kind == Global {
		proc = -1
	}
	name := "global memory"
	if kind == Local {
		name = fmt.Sprintf("local memory of cpu%d", proc)
	}
	return &Pool{name: name, kind: kind, proc: proc, pageSize: pageSize, size: n}
}

// Name returns a human-readable pool name.
func (p *Pool) Name() string { return p.name }

// Size reports the total number of frames.
//
//numalint:hotpath
func (p *Pool) Size() int { return p.size }

// Free reports the number of unallocated frames.
//
//numalint:hotpath
func (p *Pool) Free() int { return p.size - p.made + len(p.free) }

// InUse reports the number of allocated frames.
func (p *Pool) InUse() int { return p.made - len(p.free) }

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
		return nil, &ErrNoFrames{Pool: p.name}
	}
	if len(p.block) == 0 {
		//numalint:coldpath growth: blocks double, so a pool of n frames grows O(log n) times
		n := min(p.made+firstBlock, p.size-p.made)
		p.block = make([]Frame, n)
		// The free list is empty here, and it never holds more than the
		// records made, so this capacity keeps Release allocation-free.
		p.free = make([]*Frame, 0, p.made+n)
	}
	f := &p.block[0]
	p.block = p.block[1:]
	*f = Frame{kind: p.kind, proc: p.proc, index: p.made, pageSize: p.pageSize, inUse: true}
	p.made++
	return f, nil
}

// Release returns a frame to the pool.
//
//numalint:hotpath
func (p *Pool) Release(f *Frame) {
	if f.kind != p.kind || f.proc != p.proc {
		panic(fmt.Sprintf("mem: frame %s released to wrong pool %s", f, p.name))
	}
	if !f.inUse {
		panic(fmt.Sprintf("mem: double free of frame %s", f))
	}
	f.inUse = false
	p.free = append(p.free, f) //numalint:coldpath bounded: Alloc grows the free list's capacity with each block of records
}

// Memory aggregates the global pool and the per-node local pools of a
// machine. On the two-level ACE every processor is its own node; multi-node
// topologies home several processors on one pool.
type Memory struct {
	pageSize int
	global   *Pool
	local    []*Pool
}

// NewMemory builds the physical memory of a machine with nnodes memory
// nodes, globalFrames frames of global memory and localFrames frames of
// local memory per node.
func NewMemory(nnodes, globalFrames, localFrames, pageSize int) *Memory {
	m := &Memory{pageSize: pageSize}
	m.global = NewPool(Global, -1, globalFrames, pageSize)
	m.local = make([]*Pool, nnodes)
	for i := range m.local {
		m.local[i] = NewPool(Local, i, localFrames, pageSize)
	}
	return m
}

// PageSize reports the machine page size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// Global returns the global memory pool.
//
//numalint:hotpath
func (m *Memory) Global() *Pool { return m.global }

// Local returns node p's local memory pool.
//
//numalint:hotpath
func (m *Memory) Local(p int) *Pool { return m.local[p] }

// NProc reports the number of local pools (nodes; historical name from the
// one-node-per-processor ACE).
func (m *Memory) NProc() int { return len(m.local) }
