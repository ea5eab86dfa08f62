package mmu

import (
	"fmt"
	"math/rand"
	"testing"

	"numasim/internal/mem"
)

// testMem is the memory frames draws from. An MMU names a frame by its
// pool and index, so frames of two memories would share its slots
// (TestFrameFromAnotherMemoryPanics). Frame records are made on first
// allocation, so a large global memory costs only the frames drawn, and
// -count=N does not exhaust it.
var testMem = mem.NewMemory(1, 1<<24, 1, 4096)

// frames draws n fresh frames from testMem's global memory.
func frames(n int) []*mem.Frame { return framesFrom(testMem.Global(), n) }

// framesFrom draws n fresh frames from pool.
func framesFrom(pool *mem.Pool, n int) []*mem.Frame {
	out := make([]*mem.Frame, n)
	for i := range out {
		f, err := pool.Alloc()
		if err != nil {
			panic(err)
		}
		out[i] = f
	}
	return out
}

func TestProtBits(t *testing.T) {
	if ProtNone&ProtRead != 0 || ProtNone.CanWrite() {
		t.Error("ProtNone grants access")
	}
	if ProtRead&ProtRead == 0 || ProtRead.CanWrite() {
		t.Error("ProtRead wrong")
	}
	if ProtReadWrite&ProtRead == 0 || !ProtReadWrite.CanWrite() {
		t.Error("ProtReadWrite wrong")
	}
	for p, want := range map[Prot]string{ProtNone: "---", ProtRead: "r--", ProtWrite: "-w-", ProtReadWrite: "rw-"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestEnterTranslate(t *testing.T) {
	f := frames(2)
	m := &NewSet(1)[0]
	if m.Translate(5, false) != nil {
		t.Error("translate on empty MMU should fault")
	}
	m.Enter(5, f[0], ProtRead)
	if got := m.Translate(5, false); got != f[0] {
		t.Errorf("read translate = %v, want %v", got, f[0])
	}
	if m.Translate(5, true) != nil {
		t.Error("write to read-only should fault")
	}
	m.Enter(5, f[1], ProtReadWrite) // replace mapping
	if got := m.Translate(5, true); got != f[1] {
		t.Errorf("after replace, translate = %v, want %v", got, f[1])
	}
	if pte := m.Lookup(5); pte == nil || pte.Frame != f[1] || pte.Prot != ProtReadWrite {
		t.Errorf("after replace, Lookup = %+v", pte)
	}
	m.Enter(6, f[0], ProtRead) // the replaced frame is free to map: no alias drop
	if s := m.Stats(); s.AliasDrops != 0 || s.Enters != 3 {
		t.Errorf("stats = %+v, want 3 enters and no alias drop", s)
	}
	if m.Translate(5, true) != f[1] {
		t.Error("mapping the replaced frame disturbed its old key")
	}
}

func TestRosettaAliasRestriction(t *testing.T) {
	f := frames(1)
	m := &NewSet(1)[0]
	m.Enter(10, f[0], ProtReadWrite)
	m.Enter(20, f[0], ProtReadWrite) // same frame, new VA: old VA must drop
	if m.Translate(10, false) != nil {
		t.Error("old alias should have been dropped")
	}
	if m.Translate(20, true) != f[0] {
		t.Error("new alias should work")
	}
	if s := m.Stats(); s.AliasDrops != 1 || s.Enters != 2 || s.Removes != 0 {
		t.Errorf("stats = %+v, want 2 enters, 1 alias drop, no removes", s)
	}
	if m.Lookup(10) != nil {
		t.Error("old alias still has a translation")
	}
	if pte := m.Lookup(20); pte == nil || pte.Frame != f[0] {
		t.Errorf("Lookup(20) = %+v", pte)
	}
}

func TestReEnterSameVPNSameFrame(t *testing.T) {
	f := frames(1)
	m := &NewSet(1)[0]
	m.Enter(10, f[0], ProtRead)
	m.Enter(10, f[0], ProtReadWrite) // upgrade in place; not an alias drop
	if s := m.Stats(); s.AliasDrops != 0 {
		t.Errorf("AliasDrops = %d, want 0", s.AliasDrops)
	}
	if m.Translate(10, true) != f[0] {
		t.Error("upgraded mapping should be writable")
	}
}

func TestRemoveFrame(t *testing.T) {
	f := frames(2)
	m := &NewSet(1)[0]
	m.Enter(1, f[0], ProtRead)
	m.Enter(2, f[1], ProtRead)
	if !m.RemoveFrame(f[0]) {
		t.Error("RemoveFrame should report true for mapped frame")
	}
	if m.RemoveFrame(f[0]) {
		t.Error("RemoveFrame should report false for unmapped frame")
	}
	if m.Translate(1, false) != nil {
		t.Error("frame mapping not removed")
	}
	if m.Translate(2, false) != f[1] {
		t.Error("unrelated mapping disturbed")
	}
}

func TestTLBInvalidation(t *testing.T) {
	f := frames(2)
	m := &NewSet(1)[0]
	m.Enter(4, f[0], ProtReadWrite)
	if m.Translate(4, true) != f[0] { // warm the TLB
		t.Fatal("initial translate failed")
	}
	m.Enter(4, f[0], ProtRead)
	if m.Translate(4, true) != nil {
		t.Error("stale TLB allowed write after a read-only Enter")
	}
	m.Enter(4, f[1], ProtReadWrite)
	if m.Translate(4, false) != f[1] {
		t.Error("stale TLB served old frame after Enter")
	}
	m.RemoveFrame(f[1])
	if m.Translate(4, false) != nil {
		t.Error("stale TLB served removed mapping")
	}
}

func TestEnterNilFramePanics(t *testing.T) {
	m := &NewSet(1)[0]
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Enter(0, nil, ProtRead)
}

func TestEnterNoPermPanics(t *testing.T) {
	m := &NewSet(1)[0]
	f := frames(1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Enter(0, f[0], ProtNone)
}

func TestLookup(t *testing.T) {
	f := frames(1)
	m := &NewSet(1)[0]
	m.Enter(11, f[0], ProtRead)
	pte := m.Lookup(11)
	if pte == nil || pte.Frame != f[0] || pte.Prot != ProtRead || pte.Key != 11 {
		t.Errorf("Lookup = %+v", pte)
	}
	if m.Lookup(12) != nil {
		t.Error("Lookup of absent vpn should be nil")
	}
}

func TestFrameFromAnotherMemoryPanics(t *testing.T) {
	f := frames(1)[0]
	// other has f's pool and index, in a second memory.
	other := framesFrom(mem.NewMemory(1, f.Index()+1, 1, 4096).Global(), f.Index()+1)[f.Index()]
	for _, tc := range []struct {
		name string
		use  func(*MMU)
	}{
		{"Enter", func(m *MMU) { m.Enter(2, other, ProtRead) }},
		{"RemoveFrame", func(m *MMU) { m.RemoveFrame(other) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &NewSet(1)[0]
			m.Enter(1, f, ProtRead)
			defer func() {
				if recover() == nil {
					t.Fatal("want panic: the frame shares its pool and index with a mapped frame of another memory")
				}
			}()
			tc.use(m)
		})
	}
}

// TestSteadyStateDoesNotAllocate pins the MMU's share of the fault path at
// zero allocations once its tables have grown and its PTEs exist.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	f := frames(2)
	m := &NewSet(1)[0]
	a, b := Key(1)<<32|70, Key(0)<<32|9
	cycle := func() {
		m.Enter(a, f[0], ProtReadWrite)
		m.Enter(b, f[1], ProtRead)
		m.Enter(a, f[0], ProtRead)
		m.RemoveFrame(f[0])
		m.RemoveFrame(f[1])
	}
	cycle() // warm up: grow the tables and make the PTEs
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warm Enter/RemoveFrame cycle: %v allocs, want 0", n)
	}
}

// mapMMU is the reference model for the MMU: a hash map from key to
// translation and one from frame to its translation, with no TLB and no
// record recycling. TestMMUMatchesMapModel holds the MMU to it.
type mapMMU struct {
	pt    map[Key]*PTE
	byFrm map[*mem.Frame]*PTE
	stats Stats
}

func newMapMMU() *mapMMU {
	return &mapMMU{pt: make(map[Key]*PTE), byFrm: make(map[*mem.Frame]*PTE)}
}

func (m *mapMMU) Enter(key Key, frame *mem.Frame, prot Prot) {
	if old, ok := m.byFrm[frame]; ok && old.Key != key {
		delete(m.pt, old.Key)
		delete(m.byFrm, frame)
		m.stats.AliasDrops++
	}
	if old, ok := m.pt[key]; ok {
		delete(m.byFrm, old.Frame)
		old.Frame, old.Prot = frame, prot
		m.byFrm[frame] = old
		m.stats.Enters++
		return
	}
	pte := &PTE{Key: key, Frame: frame, Prot: prot}
	m.pt[key] = pte
	m.byFrm[frame] = pte
	m.stats.Enters++
}

func (m *mapMMU) RemoveFrame(frame *mem.Frame) bool {
	pte, ok := m.byFrm[frame]
	if !ok {
		return false
	}
	delete(m.pt, pte.Key)
	delete(m.byFrm, frame)
	m.stats.Removes++
	return true
}

func (m *mapMMU) Lookup(key Key) *PTE { return m.pt[key] }

func (m *mapMMU) Translate(key Key, write bool) *mem.Frame {
	pte := m.pt[key]
	if pte == nil || write && !pte.Prot.CanWrite() || !write && pte.Prot&ProtRead == 0 {
		return nil
	}
	return pte.Frame
}

// TestMMUMatchesMapModel runs seeded random scripts of every MMU operation
// against mapMMU, comparing every return value, the Stats and a Lookup of
// every key in play after every step. Each script's keys come from three
// address spaces first used out of order (2, 0, 1), with VPNs that reach
// past the forward table's current length; its frames are the global
// pool's and two local pools' frames at four shared indices, one past 64,
// so frames of different pools share an index.
func TestMMUMatchesMapModel(t *testing.T) {
	const poolFrames = 128
	mm := mem.NewMemory(2, poolFrames, poolFrames, 4096)
	pools := [][]*mem.Frame{
		framesFrom(mm.Global(), poolFrames),
		framesFrom(mm.Local(0), poolFrames),
		framesFrom(mm.Local(1), poolFrames),
	}
	var kinds struct{ fresh, newFrame, alias, grown int }
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := make([]Key, 12)
			for j := range keys {
				vpn := rng.Intn(8)
				if j >= 3 {
					vpn = rng.Intn(32)
					if rng.Intn(2) == 0 {
						vpn = rng.Intn(1024)
					}
				}
				keys[j] = Key([]uint32{2, 0, 1}[j%3])<<32 | Key(vpn)
			}
			idx := []int{65 + rng.Intn(poolFrames-65), rng.Intn(poolFrames), rng.Intn(poolFrames), rng.Intn(poolFrames)}
			var frs []*mem.Frame
			for _, i := range idx {
				for _, pool := range pools {
					frs = append(frs, pool[i])
				}
			}

			m, model := &NewSet(4)[3], newMapMMU()
			for step := 0; step < 400; step++ {
				key := keys[rng.Intn(len(keys))]
				if rng.Intn(10) == 0 {
					key = Key(rng.Intn(3))<<32 | Key(rng.Intn(2048)) // most likely unmapped
				}
				frame := frs[rng.Intn(len(frs))]
				var op string
				switch r := rng.Intn(100); {
				case step < 3 || r < 35:
					if step < 3 {
						key = keys[step]
					}
					prot := Prot(1 + rng.Intn(3))
					op = fmt.Sprintf("Enter(%#x, %s, %s)", key, frame, prot)
					if old := model.byFrm[frame]; old != nil && old.Key != key {
						kinds.alias++
					}
					if old := model.pt[key]; old == nil {
						kinds.fresh++
					} else if old.Frame != frame {
						kinds.newFrame++
					}
					if space, vpn := split(key); space < len(m.fwd) && m.fwd[space] != nil && vpn >= len(m.fwd[space]) {
						kinds.grown++
					}
					m.Enter(key, frame, prot)
					model.Enter(key, frame, prot)
				case r < 59:
					op = fmt.Sprintf("RemoveFrame(%s)", frame)
					if got, want := m.RemoveFrame(frame), model.RemoveFrame(frame); got != want {
						t.Fatalf("step %d: %s = %v, model %v", step, op, got, want)
					}
				case r < 90:
					write := rng.Intn(2) == 0
					op = fmt.Sprintf("Translate(%#x, %v)", key, write)
					if got, want := m.Translate(key, write), model.Translate(key, write); got != want {
						t.Fatalf("step %d: %s = %v, model %v", step, op, got, want)
					}
				default:
					op = fmt.Sprintf("Lookup(%#x)", key)
				}
				if got, want := m.Stats(), model.stats; got != want {
					t.Fatalf("step %d: after %s, stats %+v, model %+v", step, op, got, want)
				}
				for _, k := range append(keys, key) {
					got, want := m.Lookup(k), model.Lookup(k)
					if (got == nil) != (want == nil) || got != nil && *got != *want {
						t.Fatalf("step %d: after %s, Lookup(%#x) = %+v, model %+v", step, op, k, got, want)
					}
				}
			}
		})
	}
	if kinds.fresh == 0 || kinds.newFrame == 0 || kinds.alias == 0 || kinds.grown == 0 {
		t.Errorf("scripts missed a kind of Enter: %+v", kinds)
	}
}
