package sim

import (
	"strconv"
	"testing"
)

// benchPick measures the engine's pick cost with n always-ready threads,
// under the heap-based ready queue or the reference linear scan. With one
// thread the heap engine re-dispatches every yield in place and picks
// nothing, while the linear scan still switches.
func benchPick(b *testing.B, n int, linear bool) {
	e := NewEngine()
	e.linearPick = linear
	iters := b.N/n + 1
	for i := 0; i < n; i++ {
		e.Spawn("t", 0, func(th *Thread) {
			for j := 0; j < iters; j++ {
				th.Advance(Microsecond)
				th.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPick compares the indexed min-heap ready queue against the
// original O(n) scan it replaced, as the ready-thread count grows.
func BenchmarkPick(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		n := n
		b.Run("heap/"+strconv.Itoa(n), func(b *testing.B) { benchPick(b, n, false) })
		b.Run("linear/"+strconv.Itoa(n), func(b *testing.B) { benchPick(b, n, true) })
	}
}
