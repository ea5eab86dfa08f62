package mem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

// newPool makes a standalone pool, as NewMemory makes each of its own.
func newPool(kind Kind, node, n, pageSize int) *Pool {
	p := new(Pool)
	p.init(kind, node, n, pageSize)
	return p
}

func TestPoolAllocRelease(t *testing.T) {
	p := newPool(Global, 0, 4, 4096)
	if p.Size() != 4 || p.Free() != 4 {
		t.Fatalf("fresh pool size=%d free=%d", p.Size(), p.Free())
	}
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if !f.inUse {
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
	p := newPool(Local, 3, 3, 1024)
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
		p := newPool(Global, -1, firstBlock+1, 512)
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
		p0 := newPool(Local, 0, firstBlock+1, 512)
		p1 := newPool(Local, 1, firstBlock+1, 512)
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
	newPool(Global, -1, 1, 1000)
}

func TestNegativeFrameCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative frame count should panic")
		}
	}()
	newPool(Global, -1, -1, 4096)
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
	p := newPool(Local, 2, size, 256)
	m := newPoolModel(size)
	records := make(map[int]*Frame) // every frame handed out, by index
	var held []int                  // indices in use
	step := 0
	check := func(op string) {
		t.Helper()
		step++
		free := len(m.free)
		if p.Size() != size || p.Free() != free || p.made-len(p.free) != size-free {
			t.Fatalf("step %d (%s): size %d free %d in use %d, model %d %d %d",
				step, op, p.Size(), p.Free(), p.made-len(p.free), size, free, size-free)
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
		if !f.inUse || f.Kind() != Local || f.Proc() != 2 || f.pageSize != 256 {
			t.Fatalf("step %d: frame %s has in use %v, kind %v, proc %d, page size %d",
				step, f, f.inUse, f.Kind(), f.Proc(), f.pageSize)
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
		pools[i] = newPool(Global, -1, size, 256)
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
	p := newPool(Global, -1, 1, 4096)
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

// TestFrameBoundsPanic drives every accessor one byte past each end of
// a 512-byte frame and at its last in-range offset, on an untouched frame
// (no data yet, so the bounds check is the only guard) and a touched one.
func TestFrameBoundsPanic(t *testing.T) {
	accessors := []struct {
		name string
		size int
		do   func(f *Frame, off int)
	}{
		{"Load8", 1, func(f *Frame, off int) { f.Load8(off) }},
		{"Store8", 1, func(f *Frame, off int) { f.Store8(off, 1) }},
		{"Load32", 4, func(f *Frame, off int) { f.Load32(off) }},
		{"Store32", 4, func(f *Frame, off int) { f.Store32(off, 1) }},
		{"Load64", 8, func(f *Frame, off int) { f.Load64(off) }},
		{"Store64", 8, func(f *Frame, off int) { f.Store64(off, 1) }},
	}
	for _, touched := range []bool{false, true} {
		for _, a := range accessors {
			p := newPool(Global, -1, 1, 512)
			f, _ := p.Alloc()
			if touched {
				f.Data()
			}
			for _, off := range []int{-1, 512 - a.size + 1} {
				want := fmt.Sprintf("mem: access [%d,%d) outside 512-byte frame global[0]", off, off+a.size)
				func() {
					defer func() {
						if r := recover(); fmt.Sprint(r) != want {
							t.Errorf("%s(%d), touched %v: panic %v, want %q", a.name, off, touched, r, want)
						}
					}()
					a.do(f, off)
				}()
			}
			a.do(f, 0)
			a.do(f, 512-a.size)
		}
	}
}

func TestZeroAndCopy(t *testing.T) {
	p := newPool(Global, -1, 2, 256)
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
	c := newPool(Global, -1, 1, 256)
	fresh, _ := c.Alloc()
	b.CopyFrom(fresh)
	if b.Load32(4) != 0 {
		t.Error("CopyFrom(untouched) should zero destination")
	}
}

func TestZeroUntouchedIsNoop(t *testing.T) {
	p := newPool(Global, -1, 1, 256)
	f, _ := p.Alloc()
	f.Zero() // must not allocate
	if f.data != nil {
		t.Error("Zero on untouched frame should not allocate backing store")
	}
}

func TestCopyMismatchedSizesPanics(t *testing.T) {
	a, _ := newPool(Global, -1, 1, 256).Alloc()
	b, _ := newPool(Global, -1, 1, 512).Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched copy should panic")
		}
	}()
	a.CopyFrom(b)
}

func TestMemoryAggregate(t *testing.T) {
	m := NewMemory(4, 16, 8, 4096)
	if len(m.local) != 4 {
		t.Errorf("local pools = %d", len(m.local))
	}
	if m.Global().Size() != 16 {
		t.Errorf("global size = %d", m.Global().Size())
	}
	if got := m.Global().Name(); got != "global memory" {
		t.Errorf("global pool named %q", got)
	}
	for i := 0; i < 4; i++ {
		if m.Local(i).Size() != 8 {
			t.Errorf("local %d size = %d", i, m.Local(i).Size())
		}
		if got, want := m.Local(i).Name(), fmt.Sprintf("local memory of node%d", i); got != want {
			t.Errorf("local pool %d named %q, want %q", i, got, want)
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
	p := newPool(Global, -1, 1, 4096)
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
	g, _ := newPool(Global, -1, 1, 256).Alloc()
	l, _ := newPool(Local, 2, 1, 256).Alloc()
	if g.String() != "global[0]" {
		t.Errorf("global string = %q", g.String())
	}
	if l.String() != "local2[0]" {
		t.Errorf("local string = %q", l.String())
	}
}

// words reads a frame's contents through Load32.
func words(f *Frame) []uint32 {
	w := make([]uint32, f.pageSize/4)
	for i := range w {
		w[i] = f.Load32(4 * i)
	}
	return w
}

// fill stores a pattern derived from seed into every word of f.
func fill(f *Frame, seed uint32) []uint32 {
	for i := 0; i < int(f.pageSize)/4; i++ {
		f.Store32(4*i, seed*2654435761+uint32(i))
	}
	return words(f)
}

// TestShareFrom checks that frames sharing bytes behave as if each held
// its own copy. Each case starts from a lender holding a pattern, two
// frames that borrow it, and a spare frame with another pattern; it acts
// on them and returns the contents each frame must read afterwards.
func TestShareFrom(t *testing.T) {
	type frames struct {
		p              *Pool
		lender, b0, b1 *Frame
		other          *Frame
	}
	cases := []struct {
		name string
		act  func(t *testing.T, fs *frames, lend, other []uint32) (lender, b0, b1 []uint32)
	}{
		{"loads read the lender's bytes", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			if !fs.b0.shares(fs.lender) || !fs.b1.shares(fs.lender) || fs.lender.borrowers != 2 {
				t.Errorf("borrowers do not read the lender's buffer, or the lender counts %d", fs.lender.borrowers)
			}
			return lend, lend, lend
		}},
		{"store to a borrower", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.b0.Store32(8, 0xfeed)
			b0 := append([]uint32(nil), lend...)
			b0[2] = 0xfeed
			return lend, b0, lend
		}},
		{"store to the lender", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.lender.Store64(16, 0)
			l := append([]uint32(nil), lend...)
			l[4], l[5] = 0, 0
			return l, lend, lend
		}},
		{"zero the lender", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.lender.Zero()
			return make([]uint32, len(lend)), lend, lend
		}},
		{"copy into the lender", func(t *testing.T, fs *frames, lend, other []uint32) ([]uint32, []uint32, []uint32) {
			fs.lender.CopyFrom(fs.other)
			return other, lend, lend
		}},
		{"copy into a borrower", func(t *testing.T, fs *frames, lend, other []uint32) ([]uint32, []uint32, []uint32) {
			fs.b1.CopyFrom(fs.other)
			if fs.b1.lender != nil || fs.lender.borrowers != 1 {
				t.Errorf("copying into a borrower kept its borrow (lender counts %d)", fs.lender.borrowers)
			}
			return lend, lend, other
		}},
		{"copy between sharers", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.b1.CopyFrom(fs.b0)
			fs.lender.CopyFrom(fs.b0)
			fs.b0.ShareFrom(fs.lender)
			if !fs.b0.shares(fs.lender) || !fs.b1.shares(fs.lender) || fs.lender.borrowers != 2 {
				t.Errorf("copying between frames that read one buffer stopped the sharing (lender counts %d)", fs.lender.borrowers)
			}
			return lend, lend, lend
		}},
		{"share again from a changed lender", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.b1.Zero() // b0 is now the lender's only borrower
			fs.lender.Store32(0, 5)
			fs.b0.ShareFrom(fs.lender)
			fs.lender.Store32(4, 6)
			b0 := slices.Clone(lend)
			b0[0] = 5
			l := slices.Clone(b0)
			l[1] = 6
			return l, b0, make([]uint32, len(lend))
		}},
		{"copy from a borrower into its changed lender", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			// b1 still reads the bytes the lender lent, so its borrow
			// stays, and a frame that borrows them from b1 borrows them
			// from the lender.
			fs.lender.Zero()
			fs.lender.CopyFrom(fs.b1)
			fs.other.ShareFrom(fs.b1)
			fs.other.Zero()
			fs.b1.Store32(0, 5)
			b1 := slices.Clone(lend)
			b1[0] = 5
			return lend, lend, b1
		}},
		{"share from a borrower", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.other.ShareFrom(fs.b0)
			if fs.other.lender != fs.lender || fs.lender.borrowers != 3 {
				t.Errorf("sharing from a borrower borrowed from %v, lender counts %d", fs.other.lender, fs.lender.borrowers)
			}
			if got := words(fs.other); !slices.Equal(got, lend) {
				t.Errorf("frame shared from a borrower reads %x, want the lender's %x", got[:4], lend[:4])
			}
			fs.lender.Store32(0, 1)
			if got := words(fs.other); !slices.Equal(got, lend) {
				t.Error("a store to the lender changed a frame shared from its borrower")
			}
			l := append([]uint32(nil), lend...)
			l[0] = 1
			return l, lend, lend
		}},
		{"release a borrower", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			fs.p.Release(fs.b0)
			if fs.b0.lender != nil || fs.b0.shares(fs.lender) || fs.lender.borrowers != 1 {
				t.Errorf("a released borrower still reads its lender's bytes (lender counts %d)", fs.lender.borrowers)
			}
			fs.b0, _ = fs.p.Alloc()
			fs.b0.Zero()
			return lend, make([]uint32, len(lend)), lend
		}},
		{"release the lender", func(t *testing.T, fs *frames, lend, _ []uint32) ([]uint32, []uint32, []uint32) {
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "2 frames borrow its bytes") {
						t.Errorf("releasing a lender: panic %v, want one naming its 2 borrowers", r)
					}
				}()
				fs.p.Release(fs.lender)
			}()
			return lend, lend, lend
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPool(Local, 0, 8, 64)
			var fs frames
			fs.p = p
			for _, f := range []**Frame{&fs.lender, &fs.b0, &fs.b1, &fs.other} {
				*f, _ = p.Alloc()
			}
			fill(fs.b0, 7) // a borrower keeps the buffer it had
			lend, other := fill(fs.lender, 1), fill(fs.other, 2)
			fs.b0.ShareFrom(fs.lender)
			fs.b1.ShareFrom(fs.lender)
			wl, w0, w1 := c.act(t, &fs, lend, other)
			for _, g := range []struct {
				name string
				f    *Frame
				want []uint32
			}{{"lender", fs.lender, wl}, {"b0", fs.b0, w0}, {"b1", fs.b1, w1}} {
				if got := words(g.f); !slices.Equal(got, g.want) {
					t.Errorf("%s reads %x..., want %x...", g.name, got[:6], g.want[:6])
				}
			}
		})
	}
}

// TestShareEndsWithoutAllocating: once a lender's last borrow ends,
// however it ends, the lender's next store writes its own buffer in place,
// and a borrower's first store copies into the buffer it kept. The lender
// copying from its only borrower ends that borrow first and copies into
// the buffer it gets back.
func TestShareEndsWithoutAllocating(t *testing.T) {
	p := newPool(Global, -1, 4, 256)
	lender, _ := p.Alloc()
	b, _ := p.Alloc()
	other, _ := p.Alloc()
	fill(lender, 1)
	fill(b, 2)
	fill(other, 3)
	ends := []struct {
		name string
		end  func()
	}{
		{"release", func() { p.Release(b); b, _ = p.Alloc() }},
		{"zero", func() { b.Zero() }},
		{"copy", func() { b.CopyFrom(other) }},
		{"share", func() { b.ShareFrom(other); b.Zero() }},
		{"borrower stores", func() { b.Store32(0, 9); b.Zero() }},
		{"lender copies from it", func() { b.Store32(0, 9); lender.CopyFrom(b) }},
	}
	for _, e := range ends {
		if a := testing.AllocsPerRun(10, func() {
			b.ShareFrom(lender)
			e.end()
			lender.Store32(4, 5)
		}); a != 0 {
			t.Errorf("%s: %.1f allocations per borrow, want 0", e.name, a)
		}
		if b.lender != nil || lender.borrowers != 0 || !lender.writable {
			t.Errorf("%s: borrow did not end (lender counts %d)", e.name, lender.borrowers)
		}
	}
}

// TestShareMatchesCopyModel runs seeded random scripts of Alloc,
// Release, ShareFrom, Store32, Zero and CopyFrom over a few frames of one
// pool against a model that gives every frame its own bytes, once over a
// standalone pool's heap buffers and once over a mapped memory's global
// pool. After every step, every frame in use reads the model's bytes,
// every frame counts exactly the frames that borrow from it, no free
// frame borrows, and a frame that reads nothing has no bytes written in
// its slot. After the mapped memory's Close, every frame reads zeros.
func TestShareMatchesCopyModel(t *testing.T) {
	const size, pageSize = 6, 32
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Run("heap", func(t *testing.T) {
				runShareScript(t, newPool(Global, -1, size, pageSize), rand.New(rand.NewSource(seed)))
			})
			t.Run("mapped", func(t *testing.T) {
				m := mapped(t, 1, size, 2, pageSize)
				made := runShareScript(t, m.Global(), rand.New(rand.NewSource(seed)))
				m.Close()
				for _, f := range made {
					if got := words(f); slices.ContainsFunc(got, func(w uint32) bool { return w != 0 }) {
						t.Errorf("%s reads %x after Close, want zeros", f, got)
					}
				}
			})
		})
	}
}

// runShareScript runs one seeded script over p, whose size is at most
// the script's six frames and whose page size is 32 bytes, and returns
// every frame it handed out, by index.
func runShareScript(t *testing.T, p *Pool, rng *rand.Rand) []*Frame {
	const size, pageSize, steps = 6, 32, 2000
	var made []*Frame              // every frame handed out, by index
	model := map[*Frame][]uint32{} // the bytes each frame in use reads
	var held []*Frame              // frames in use
	pick := func() *Frame { return held[rng.Intn(len(held))] }
	// sharer picks a frame in use that reads f's bytes, or any frame in
	// use when none does, so copies and shares between sharers are common.
	sharer := func(f *Frame) *Frame {
		var cands []*Frame
		for _, g := range held {
			if g != f && g.shares(f) {
				cands = append(cands, g)
			}
		}
		if len(cands) == 0 {
			return pick()
		}
		return cands[rng.Intn(len(cands))]
	}
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(10); {
		case len(held) == 0 || r == 0 && len(held) < size:
			f, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if int(f.index) == len(made) {
				made = append(made, f)
			}
			held = append(held, f)
			// Alloc leaves the contents undefined; the model takes them.
			model[f] = words(f)
			op = fmt.Sprintf("alloc %s", f)
		case r == 1:
			k := rng.Intn(len(held))
			f := held[k]
			if f.borrowers > 0 {
				continue
			}
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
			delete(model, f)
			p.Release(f)
			op = fmt.Sprintf("release %s", f)
		case r <= 4:
			f, src := pick(), pick()
			if rng.Intn(2) == 0 {
				src = sharer(f)
			}
			f.ShareFrom(src)
			model[f] = slices.Clone(model[src])
			op = fmt.Sprintf("%s shares from %s", f, src)
		case r <= 7:
			f, i, v := pick(), rng.Intn(pageSize/4), rng.Uint32()
			f.Store32(4*i, v)
			model[f][i] = v
			op = fmt.Sprintf("store %#x to word %d of %s", v, i, f)
		case r == 8:
			f := pick()
			f.Zero()
			clear(model[f])
			op = fmt.Sprintf("zero %s", f)
		default:
			f := pick()
			src := sharer(f)
			f.CopyFrom(src)
			model[f] = slices.Clone(model[src])
			op = fmt.Sprintf("copy %s into %s", src, f)
		}
		for _, f := range held {
			if got := words(f); !slices.Equal(got, model[f]) {
				t.Fatalf("step %d (%s): %s reads %x, model %x", step, op, f, got, model[f])
			}
		}
		for _, l := range made {
			n := 0
			for _, f := range made {
				if f.lender == l {
					n++
				}
			}
			if int(l.borrowers) != n {
				t.Fatalf("step %d (%s): %s counts %d borrowers, %d frames borrow from it", step, op, l, l.borrowers, n)
			}
			if !l.inUse && l.lender != nil {
				t.Fatalf("step %d (%s): free frame %s still borrows from %s", step, op, l, l.lender)
			}
			if l.data == nil && slices.ContainsFunc(l.buf, func(b byte) bool { return b != 0 }) {
				t.Fatalf("step %d (%s): %s reads nothing, but its slot holds %x", step, op, l, l.buf)
			}
		}
	}
	return made
}

// TestFrameEqual compares frames that share a buffer, hold equal or
// different bytes, or hold none (which reads as zeros).
func TestFrameEqual(t *testing.T) {
	p := newPool(Global, -1, 5, 64)
	var fs [5]*Frame
	for i := range fs {
		fs[i], _ = p.Alloc()
	}
	untouched, zeroed, a, b, shared := fs[0], fs[1], fs[2], fs[3], fs[4]
	zeroed.Store32(0, 0)
	fill(a, 5)
	fill(b, 5)
	shared.ShareFrom(a)
	for _, c := range []struct {
		f, g *Frame
		want bool
	}{
		{untouched, untouched, true},
		{untouched, zeroed, true},
		{zeroed, untouched, true},
		{a, b, true},
		{a, shared, true},
		{shared, b, true},
		{a, untouched, false},
		{untouched, a, false},
	} {
		if got := c.f.Equal(c.g); got != c.want {
			t.Errorf("%s.Equal(%s) = %v, want %v", c.f, c.g, got, c.want)
		}
	}
	b.Store32(60, 1)
	if a.Equal(b) || shared.Equal(b) {
		t.Error("frames differing in their last word compare equal")
	}
}

// TestFrameRecordSize: a pool makes one record per frame its run touches,
// so the record stays within the 72 bytes that keep sharing from growing
// a run's allocation.
func TestFrameRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 72 {
		t.Errorf("Frame is %d bytes, want at most 72", n)
	}
}

// mapped returns a mapped memory whose mapping is already made, and
// closes it when the test ends. It skips the test where no mapping can be
// made.
func mapped(t *testing.T, nnodes, globalFrames, localFrames, pageSize int) *Memory {
	t.Helper()
	m := NewMemory(nnodes, globalFrames, localFrames, pageSize)
	m.Map()
	t.Cleanup(m.Close)
	m.global.reg.mapOnce()
	if m.global.reg.bytes == nil {
		t.Skip("this system cannot map a memory")
	}
	return m
}

// TestMappedFrames: each pool's frames own consecutive slots of the
// memory's mapping, from the global pool's frame 0 up. A made frame reads
// nothing, and neither Zero nor Release nor its reuse touches its slot.
// Its first store writes its own slot and no other byte of the mapping.
func TestMappedFrames(t *testing.T) {
	const nnodes, globalFrames, localFrames, pageSize = 2, 4, 3, 64
	m := mapped(t, nnodes, globalFrames, localFrames, pageSize)
	region := m.global.reg.bytes
	if len(region) != (globalFrames+nnodes*localFrames)*pageSize {
		t.Fatalf("the mapping holds %d bytes, want %d", len(region), (globalFrames+nnodes*localFrames)*pageSize)
	}
	g0, _ := m.Global().Alloc()
	g1, _ := m.Global().Alloc()
	l1, _ := m.Local(1).Alloc()
	for _, c := range []struct {
		f    *Frame
		slot int
	}{{g0, 0}, {g1, 1}, {l1, globalFrames + localFrames}} {
		f, off := c.f, c.slot*pageSize
		if f.data != nil || len(f.buf) != pageSize || cap(f.buf) != pageSize || &f.buf[0] != &region[off] {
			t.Errorf("%s: data %v, and a %d-byte buffer that is not slot %d", f, f.data != nil, len(f.buf), c.slot)
		}
	}
	g0.Zero()
	m.Global().Release(g0)
	if again, _ := m.Global().Alloc(); again != g0 {
		t.Fatal("the released frame was not handed out again")
	}
	g0.Zero()
	if g0.data != nil || g0.writable || slices.ContainsFunc(words(g0), func(w uint32) bool { return w != 0 }) {
		t.Errorf("an untouched frame reads %x after Zero, Release and reuse; data %v", words(g0), g0.data != nil)
	}
	g1.Store32(8, 0xfeedf00d)
	l1.Store8(pageSize-1, 0x7f)
	want := make([]byte, len(region))
	want[pageSize+8], want[pageSize+9], want[pageSize+10], want[pageSize+11] = 0x0d, 0xf0, 0xed, 0xfe
	want[(globalFrames+localFrames+1)*pageSize-1] = 0x7f
	if !slices.Equal(region, want) {
		t.Error("two first stores wrote the mapping outside their own words")
	}
	if g1.Load32(8) != 0xfeedf00d || l1.Load8(pageSize-1) != 0x7f || !g1.writable || &g1.data[0] != &region[pageSize] {
		t.Error("a first store did not make the frame read its own slot")
	}
}

// TestMappingWaitsForHeapRecords: a mapped memory makes its first
// heapRecords records, counted across its pools, with heap buffers and
// no mapping; the next record makes the mapping and gets its slot. Close
// makes the heap-backed frames read zeros too.
func TestMappingWaitsForHeapRecords(t *testing.T) {
	const pageSize = 64
	m := NewMemory(2, heapRecords, heapRecords, pageSize)
	m.Map()
	t.Cleanup(m.Close)
	var early []*Frame
	for i := 0; i < heapRecords; i++ {
		f, _ := m.Local(i % 2).Alloc()
		f.Store8(0, 1)
		early = append(early, f)
		if m.global.reg.tried || f.buf == nil || len(f.buf) != pageSize || f.Load8(0) != 1 {
			t.Fatalf("record %d: mapping tried %v, or a frame that does not hold its store in a heap buffer", i, m.global.reg.tried)
		}
	}
	f, _ := m.Global().Alloc()
	if !m.global.reg.tried {
		t.Fatal("the record past heapRecords did not try the mapping")
	}
	if m.global.reg.bytes == nil {
		t.Skip("this system cannot map a memory")
	}
	if f.buf == nil || &f.buf[0] != &m.global.reg.bytes[0] {
		t.Error("the record past heapRecords did not get its slot")
	}
	m.Close()
	for _, f := range early {
		if f.Load8(0) != 0 {
			t.Errorf("heap-backed %s reads %d after Close, want 0", f, f.Load8(0))
		}
	}
}

// TestCloseMappedMemory: after Close, every frame made, whether it had
// stored, lent or borrowed, reads zeros, and loads and stores still work
// on heap buffers; frames made after Close get heap buffers too. A second
// Close changes nothing.
func TestCloseMappedMemory(t *testing.T) {
	m := mapped(t, 2, 4, 4, 64)
	var fs []*Frame
	for _, p := range []*Pool{m.Global(), m.Local(0), m.Local(1)} {
		for range 3 {
			f, _ := p.Alloc()
			fs = append(fs, f)
		}
	}
	fill(fs[0], 1)
	fill(fs[3], 2)
	fs[1].ShareFrom(fs[0])
	fs[4].ShareFrom(fs[0])
	fs[6].CopyFrom(fs[3])
	fs[7].Store64(0, 3)
	m.Close()
	if !m.Closed() || m.global.reg.bytes != nil {
		t.Fatalf("Close left the memory open (%v) or mapped (%v)", !m.Closed(), m.global.reg.bytes != nil)
	}
	for i, f := range fs {
		if got := words(f); slices.ContainsFunc(got, func(w uint32) bool { return w != 0 }) {
			t.Errorf("%s reads %x after Close, want zeros", f, got)
		}
		if f.data != nil || f.buf != nil || f.lender != nil || f.borrowers != 0 {
			t.Errorf("%s still holds bytes or a borrow after Close", f)
		}
		f.Store32(4, uint32(i+1))
		if f.Load32(4) != uint32(i+1) || f.Load64(8) != 0 {
			t.Errorf("%s reads %#x and %#x after a store since Close", f, f.Load32(4), f.Load64(8))
		}
	}
	late, _ := m.Local(1).Alloc()
	if late.buf != nil {
		t.Error("a frame made after Close got a slot")
	}
	late.Store8(0, 9)
	m.Close()
	for i, f := range fs {
		if f.Load32(4) != uint32(i+1) {
			t.Errorf("a second Close changed %s", f)
		}
	}
	if late.Load8(0) != 9 || !m.Closed() {
		t.Error("a second Close changed a frame made after the first, or reopened the memory")
	}
	m.Map()
	if m.global.reg.bytes != nil || m.global.reg.size == 0 {
		t.Error("Map after Close made a new mapping")
	}
}

// TestUnmappableMemoryKeepsHeapBuffers: a memory too large to map keeps
// heap buffers after Map, and its frames behave as a standalone pool's.
func TestUnmappableMemoryKeepsHeapBuffers(t *testing.T) {
	m := NewMemory(2, math.MaxInt32, math.MaxInt32, 1<<30)
	m.Map()
	f, _ := m.Global().Alloc()
	g, _ := m.Local(1).Alloc()
	if f.buf != nil || g.buf != nil || m.global.reg.bytes != nil {
		t.Fatal("a memory of 6 EiB was mapped")
	}
	f.Store32(0, 7)
	g.ShareFrom(f)
	if g.Load32(0) != 7 || !f.Equal(g) {
		t.Error("frames of an unmapped memory lost a store or a share")
	}
	m.Close()
	if f.Load32(0) != 0 || g.Load32(0) != 0 {
		t.Error("Close left an unmapped memory's frames reading their bytes")
	}
}
