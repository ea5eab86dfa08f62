//go:build !linux

package mem

// mapRegion makes no mapping here, so frames keep heap buffers.
func mapRegion(int) []byte { return nil }

// unmapRegion is never reached, since mapRegion maps nothing.
func unmapRegion([]byte) {}
