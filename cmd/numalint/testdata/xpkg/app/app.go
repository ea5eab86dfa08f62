// Package app uses lib's declarations; every finding here rests on a
// directive declared in lib.
package app

import "xpkg/lib"

// Root is a hot-path root calling into lib.
//
//numalint:hotpath
func Root(s lib.Sink, n int) int {
	s.Put(n)
	return step(lib.Vetted(n))
}

func step(n int) int {
	return lib.Unvetted(n) // want `call of xpkg/lib\.Unvetted which is not annotated //numalint:hotpath.* \[hot: Root → step\]`
}

// counter implements lib.Sink without annotating Put.
type counter struct{ n int }

func (c *counter) Put(n int) { c.n += n } // want `\(\*counter\)\.Put implements hot-path interface method \(xpkg/lib\.Sink\)\.Put and must be annotated`

var _ lib.Sink = (*counter)(nil)

func describe(p lib.Phase) string {
	switch p { // want `switch on xpkg/lib\.Phase is not exhaustive: missing \[Done\]`
	case lib.Idle:
		return "idle"
	case lib.Busy:
		return "busy"
	}
	return "?"
}

func total(m lib.Meters, f lib.Feet) float64 {
	return float64(m) + float64(f) // want `operands of "\+" mix units xpkg/lib\.Meters and xpkg/lib\.Feet`
}
