package cthreads

// LockVA returns the address of l's lock word.
func LockVA(l *SpinLock) uint32 { return l.va }
