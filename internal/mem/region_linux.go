//go:build linux

package mem

import (
	"fmt"
	"syscall"
)

// mapRegion maps n bytes of private anonymous memory, which reads as
// zeros and takes a host page only where it is written, or returns nil
// when the mapping cannot be made. MAP_NORESERVE keeps a large, mostly
// untouched memory from counting against the host's commit limit, and
// MADV_NOHUGEPAGE keeps one frame's first store from making a whole huge
// page resident.
func mapRegion(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	// A kernel built without transparent huge pages rejects the advice,
	// and then there is nothing to advise against.
	_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	return b
}

// unmapRegion releases a mapping mapRegion made.
func unmapRegion(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("mem: unmapping %d bytes: %v", len(b), err))
	}
}
