// Package mixed exercises the atomic-type check: every reference to a
// package-level sync/atomic function is reported, called or taken as a
// value; the methods of the sync/atomic types are clean.
package mixed

import "sync/atomic"

type counters struct {
	// mixed is touched both ways.
	mixed uint64

	// atomicOnly keeps one discipline, but through the functions.
	atomicOnly uint64

	// sampled is written before the workers start and read atomically
	// after.
	sampled uint64

	// lanes is an array accessed through &x.lanes[i].
	lanes [4]uint64

	// typed and flag are atomic types: plain access is impossible.
	typed atomic.Uint64
	flag  atomic.Bool
}

func (c *counters) work(i int) uint64 {
	atomic.AddUint64(&c.mixed, 1) // want `sync/atomic\.AddUint64 on a plain value`
	c.mixed++

	atomic.AddUint64(&c.atomicOnly, 1)   // want `sync/atomic\.AddUint64`
	atomic.StoreUint64(&c.atomicOnly, 0) // want `sync/atomic\.StoreUint64`

	c.sampled = 7
	atomic.AddUint64(&c.sampled, 1) // want `sync/atomic\.AddUint64`

	atomic.AddUint64(&c.lanes[i], 1)                // want `sync/atomic\.AddUint64`
	return c.lanes[i] + atomic.LoadUint64(&c.mixed) // want `sync/atomic\.LoadUint64`
}

// A function value is a reference too.
var load = atomic.LoadInt32 // want `sync/atomic\.LoadInt32`

// The methods of the atomic types, called or taken as values, are clean.
func (c *counters) typedWork() bool {
	c.typed.Add(1)
	c.typed.Store(c.typed.Load() + 1)
	c.flag.Store(true)
	swap := c.flag.CompareAndSwap
	add := (*atomic.Uint64).Add
	add(&c.typed, 2)
	return swap(true, false)
}
