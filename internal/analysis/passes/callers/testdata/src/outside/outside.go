// Package outside is not under internal/, so the callers pass leaves its
// unreferenced declarations alone.
package outside

func unused() {}

// Unused has no caller.
func Unused() {}
