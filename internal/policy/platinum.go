package policy

import (
	"fmt"

	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/sim"
)

// FreezeDefrost is a PLATINUM-style placement policy (Cox and Fowler's
// coherent memory abstraction, cited by the paper as the contemporaneous
// alternative): instead of counting moves and pinning forever, it reasons
// about *time*. A page that moved recently — within FreezeWindow of the
// current request — is "frozen" in global memory; once it has sat quiet
// for DefrostAfter, it is given another chance in local memory.
//
// Compared with the paper's Threshold policy, FreezeDefrost adapts to
// phase changes (a page hot-shared in one phase can come back to local
// memory in the next) at the cost of re-learning, and of occasionally
// re-thrashing, when sharing persists.
type FreezeDefrost struct {
	// FreezeWindow: a move within this much virtual time of the request
	// marks the page as actively shared.
	FreezeWindow sim.Time
	// DefrostAfter: a frozen page quiet for this long becomes cacheable
	// again.
	DefrostAfter sim.Time
}

// DefaultFreeze is FreezeDefrost's default freeze window; the default
// defrost time is ten windows. The windows must comfortably exceed the
// several-millisecond cost of a page move, much as PLATINUM's daemon ran
// on timer ticks.
const DefaultFreeze = 20 * sim.Millisecond

// NewFreezeDefrost returns a PLATINUM-style policy; non-positive arguments
// select defaults (DefaultFreeze, and a defrost time of ten freeze
// windows).
func NewFreezeDefrost(freeze, defrost sim.Time) *FreezeDefrost {
	if freeze <= 0 {
		freeze = DefaultFreeze
	}
	if defrost <= 0 {
		defrost = 10 * freeze
	}
	return &FreezeDefrost{FreezeWindow: freeze, DefrostAfter: defrost}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (p *FreezeDefrost) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if pg.Moves() == 0 {
		return numa.Local
	}
	quiet := pg.LastRequestAt() - pg.LastMoveAt()
	switch {
	case quiet < p.FreezeWindow:
		// Moved very recently: freeze in global memory.
		return numa.Global
	case pg.State() == numa.GlobalWritable && quiet < p.DefrostAfter:
		// Still frozen; not quiet long enough to defrost.
		return numa.Global
	default:
		return numa.Local
	}
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (p *FreezeDefrost) Name() string {
	return fmt.Sprintf("freeze-defrost(%v,%v)", p.FreezeWindow, p.DefrostAfter)
}

// ReconsiderInterval implements numa.ReconsideringPolicy: the manager's
// defrost daemon drops pinned pages' mappings once per defrost period so
// they fault back into this policy.
//
//numalint:hotpath
func (p *FreezeDefrost) ReconsiderInterval() sim.Time { return p.DefrostAfter }

var (
	_ numa.Policy              = (*FreezeDefrost)(nil)
	_ numa.ReconsideringPolicy = (*FreezeDefrost)(nil)
)
