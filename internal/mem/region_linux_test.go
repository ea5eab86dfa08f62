package mem

import (
	"errors"
	"syscall"
	"testing"
)

// TestCloseUnmaps: Close gives the mapping back to the system. madvise
// fails with ENOMEM on addresses that are not mapped, so it succeeds on
// the region before Close and fails after it.
func TestCloseUnmaps(t *testing.T) {
	m := mapped(t, 1, 4, 2, 4096)
	f, _ := m.Global().Alloc()
	f.Store32(0, 1)
	region := m.global.reg.bytes
	if err := syscall.Madvise(region, syscall.MADV_NORMAL); err != nil {
		t.Fatalf("madvise of the mapped region: %v", err)
	}
	m.Close()
	if err := syscall.Madvise(region, syscall.MADV_NORMAL); !errors.Is(err, syscall.ENOMEM) {
		t.Errorf("madvise of the region after Close returned %v, want ENOMEM: it is still mapped", err)
	}
}
