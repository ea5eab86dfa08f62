package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestPoolAllocRelease(t *testing.T) {
	p := NewPool(Global, 0, 4, 4096)
	if p.Size() != 4 || p.Free() != 4 || p.InUse() != 0 {
		t.Fatalf("fresh pool size=%d free=%d inuse=%d", p.Size(), p.Free(), p.InUse())
	}
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if !f.InUse() {
			t.Error("allocated frame not marked in use")
		}
		frames = append(frames, f)
	}
	if _, err := p.Alloc(); err == nil {
		t.Fatal("alloc from empty pool should fail")
	} else if !strings.Contains(err.Error(), "global memory") {
		t.Errorf("error %q should name the pool", err)
	}
	p.Release(frames[2])
	if p.Free() != 1 {
		t.Errorf("free = %d, want 1", p.Free())
	}
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f != frames[2] {
		t.Error("expected LIFO reuse of released frame")
	}
}

func TestPoolAllocOrder(t *testing.T) {
	p := NewPool(Local, 3, 3, 1024)
	for want := 0; want < 3; want++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f.Index() != want {
			t.Errorf("alloc %d returned frame %d", want, f.Index())
		}
		if f.Proc() != 3 || f.Kind() != Local {
			t.Errorf("frame identity wrong: %s", f)
		}
	}
}

// allocThrough allocates from p until it hands out frame idx.
func allocThrough(t *testing.T, p *Pool, idx int) *Frame {
	t.Helper()
	for {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f.Index() == idx {
			return f
		}
	}
}

// Frame 0 is made in a pool's first block of records, frame firstBlock
// in its second; both must keep the release checks.
var blockEdge = []int{0, firstBlock}

func TestDoubleFreePanics(t *testing.T) {
	for _, idx := range blockEdge {
		p := NewPool(Global, -1, firstBlock+1, 512)
		f := allocThrough(t, p, idx)
		p.Release(f)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("double free of frame %d should panic", idx)
				}
			}()
			p.Release(f)
		}()
	}
}

func TestWrongPoolReleasePanics(t *testing.T) {
	for _, idx := range blockEdge {
		p0 := NewPool(Local, 0, firstBlock+1, 512)
		p1 := NewPool(Local, 1, firstBlock+1, 512)
		f := allocThrough(t, p0, idx)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cross-pool release of frame %d should panic", idx)
				}
			}()
			p1.Release(f)
		}()
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non power-of-two page size should panic")
		}
	}()
	NewPool(Global, -1, 1, 1000)
}

func TestNegativeFrameCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative frame count should panic")
		}
	}()
	NewPool(Global, -1, -1, 4096)
}

// poolModel is an eager frame pool: every index sits on a LIFO free list
// from the start, pushed in reverse so that index 0 pops first. The pool
// makes its records lazily but must hand frames out in this order.
type poolModel struct{ free []int }

func newPoolModel(n int) *poolModel {
	m := &poolModel{}
	for i := n - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m
}

func (m *poolModel) alloc() (int, bool) {
	n := len(m.free)
	if n == 0 {
		return 0, false
	}
	i := m.free[n-1]
	m.free = m.free[:n-1]
	return i, true
}

func (m *poolModel) release(i int) { m.free = append(m.free, i) }

// TestPoolMatchesEagerModel runs seeded random alloc/release scripts,
// each filling the pool to exhaustion and draining it at least once,
// against the eager model, at sizes on both sides of the block edges.
func TestPoolMatchesEagerModel(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 130, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%d/seed%d", size, seed), func(t *testing.T) {
				runPoolScript(t, size, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func runPoolScript(t *testing.T, size int, rng *rand.Rand) {
	p := NewPool(Local, 2, size, 256)
	m := newPoolModel(size)
	records := make(map[int]*Frame) // every frame handed out, by index
	var held []int                  // indices in use
	step := 0
	check := func(op string) {
		t.Helper()
		step++
		free := len(m.free)
		if p.Size() != size || p.Free() != free || p.InUse() != size-free {
			t.Fatalf("step %d (%s): size %d free %d in use %d, model %d %d %d",
				step, op, p.Size(), p.Free(), p.InUse(), size, free, size-free)
		}
	}
	alloc := func() bool {
		t.Helper()
		want, ok := m.alloc()
		f, err := p.Alloc()
		if !ok {
			var e *ErrNoFrames
			if f != nil || !errors.As(err, &e) || e.Pool != p.Name() {
				t.Fatalf("step %d: alloc from an exhausted pool returned %v, %v; want nil and an *ErrNoFrames naming %q",
					step, f, err, p.Name())
			}
			check("exhausted alloc")
			return false
		}
		if err != nil {
			t.Fatalf("step %d: alloc failed with %d frames free in the model: %v", step, len(m.free)+1, err)
		}
		if f.Index() != want {
			t.Fatalf("step %d: alloc returned frame %d, model %d", step, f.Index(), want)
		}
		if prev, seen := records[want]; seen && prev != f {
			t.Fatalf("step %d: frame %d came back as a different record", step, want)
		}
		if !f.InUse() || f.Kind() != Local || f.Proc() != 2 || f.PageSize() != 256 {
			t.Fatalf("step %d: frame %s has in use %v, kind %v, proc %d, page size %d",
				step, f, f.InUse(), f.Kind(), f.Proc(), f.PageSize())
		}
		records[want] = f
		held = append(held, want)
		check("alloc")
		return true
	}
	release := func() {
		t.Helper()
		k := rng.Intn(len(held))
		i := held[k]
		held[k] = held[len(held)-1]
		held = held[:len(held)-1]
		m.release(i)
		p.Release(records[i])
		check("release")
	}
	random := func(steps int, allocBias float64) {
		for i := 0; i < steps; i++ {
			if len(held) == 0 || rng.Float64() < allocBias {
				alloc()
			} else {
				release()
			}
		}
	}
	random(3*size, 0.6)
	for alloc() {
	}
	for len(held) > 0 {
		release()
	}
	random(3*size, 0.5)
	for alloc() {
	}
	if len(records) != size {
		t.Fatalf("handed out %d distinct frames, want %d", len(records), size)
	}
}

// TestPoolReuseDoesNotAllocate: once frames' records exist, releasing
// all of them and allocating them again cost no allocation. The pool's
// last block is capped at its size, so a full drain needs the free list
// to hold every record made, not just the last block's.
func TestPoolReuseDoesNotAllocate(t *testing.T) {
	const size, runs = 3*firstBlock + 8, 4
	// AllocsPerRun calls its function once more than runs; each call
	// drains or refills a pool no earlier call touched.
	pools := make([]*Pool, runs+1)
	frames := make([][]*Frame, runs+1)
	for i := range pools {
		pools[i] = NewPool(Global, -1, size, 256)
		for j := 0; j < size; j++ {
			frames[i] = append(frames[i], allocThrough(t, pools[i], j))
		}
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		for _, f := range frames[next] {
			pools[next].Release(f)
		}
		next++
	}); a != 0 {
		t.Errorf("Release: %v allocs per drain of %d frames, want 0", a, size)
	}
	next = 0
	if a := testing.AllocsPerRun(runs, func() {
		for range frames[next] {
			if _, err := pools[next].Alloc(); err != nil {
				panic(err)
			}
		}
		next++
	}); a != 0 {
		t.Errorf("Alloc of released frames: %v allocs per refill of %d frames, want 0", a, size)
	}
}

func TestFrameWordAccess(t *testing.T) {
	p := NewPool(Global, -1, 1, 4096)
	f, _ := p.Alloc()
	if f.Load32(0) != 0 || f.Load64(8) != 0 || f.Load8(100) != 0 {
		t.Error("untouched frame must read zero")
	}
	f.Store32(0, 0xdeadbeef)
	f.Store64(8, 0x0123456789abcdef)
	f.Store8(100, 0x7f)
	if f.Load32(0) != 0xdeadbeef {
		t.Errorf("Load32 = %#x", f.Load32(0))
	}
	if f.Load64(8) != 0x0123456789abcdef {
		t.Errorf("Load64 = %#x", f.Load64(8))
	}
	if f.Load8(100) != 0x7f {
		t.Errorf("Load8 = %#x", f.Load8(100))
	}
}

func TestFrameBoundsPanic(t *testing.T) {
	p := NewPool(Global, -1, 1, 512)
	f, _ := p.Alloc()
	for _, fn := range []func(){
		func() { f.Load32(510) },
		func() { f.Store32(-1, 0) },
		func() { f.Load64(508) },
		func() { f.Load8(512) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access should panic")
				}
			}()
			fn()
		}()
	}
}

func TestZeroAndCopy(t *testing.T) {
	p := NewPool(Global, -1, 2, 256)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	a.Store32(4, 42)
	b.CopyFrom(a)
	if b.Load32(4) != 42 {
		t.Error("CopyFrom did not copy data")
	}
	a.Zero()
	if a.Load32(4) != 0 {
		t.Error("Zero did not clear")
	}
	if b.Load32(4) != 42 {
		t.Error("Zero of source affected copy")
	}
	// Copying from a never-touched frame zeroes the destination.
	c := NewPool(Global, -1, 1, 256)
	fresh, _ := c.Alloc()
	b.CopyFrom(fresh)
	if b.Load32(4) != 0 {
		t.Error("CopyFrom(untouched) should zero destination")
	}
}

func TestZeroUntouchedIsNoop(t *testing.T) {
	p := NewPool(Global, -1, 1, 256)
	f, _ := p.Alloc()
	f.Zero() // must not allocate
	if f.data != nil {
		t.Error("Zero on untouched frame should not allocate backing store")
	}
}

func TestEqual(t *testing.T) {
	p := NewPool(Global, -1, 3, 128)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	if !a.Equal(b) {
		t.Error("two untouched frames must be equal")
	}
	b.Store32(0, 0) // touched but still zero
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("untouched vs explicit-zero frames must be equal")
	}
	c.Store32(0, 9)
	if a.Equal(c) || c.Equal(a) {
		t.Error("different contents must not be equal")
	}
}

func TestCopyMismatchedSizesPanics(t *testing.T) {
	a, _ := NewPool(Global, -1, 1, 256).Alloc()
	b, _ := NewPool(Global, -1, 1, 512).Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched copy should panic")
		}
	}()
	a.CopyFrom(b)
}

func TestMemoryAggregate(t *testing.T) {
	m := NewMemory(4, 16, 8, 4096)
	if m.NProc() != 4 {
		t.Errorf("NProc = %d", m.NProc())
	}
	if m.PageSize() != 4096 {
		t.Errorf("PageSize = %d", m.PageSize())
	}
	if m.Global().Size() != 16 {
		t.Errorf("global size = %d", m.Global().Size())
	}
	for i := 0; i < 4; i++ {
		if m.Local(i).Size() != 8 {
			t.Errorf("local %d size = %d", i, m.Local(i).Size())
		}
		f, err := m.Local(i).Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f.Proc() != i {
			t.Errorf("local frame proc = %d, want %d", f.Proc(), i)
		}
	}
}

// Property: a round trip of any word through a frame preserves the value,
// and neighbouring words are untouched.
func TestStoreLoadRoundTrip(t *testing.T) {
	p := NewPool(Global, -1, 1, 4096)
	f, _ := p.Alloc()
	prop := func(off uint16, v uint32, w uint64) bool {
		o32 := int(off) % (4096 - 4)
		o32 -= o32 % 4
		o64 := (int(off) + 512) % (4096 - 8) &^ 7
		if o64 == o32 || (o64 < o32+4 && o64+8 > o32) {
			return true // skip overlapping picks
		}
		f.Store32(o32, v)
		f.Store64(o64, w)
		return f.Load32(o32) == v && f.Load64(o64) == w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFrameString(t *testing.T) {
	g, _ := NewPool(Global, -1, 1, 256).Alloc()
	l, _ := NewPool(Local, 2, 1, 256).Alloc()
	if g.String() != "global[0]" {
		t.Errorf("global string = %q", g.String())
	}
	if l.String() != "local2[0]" {
		t.Errorf("local string = %q", l.String())
	}
}
