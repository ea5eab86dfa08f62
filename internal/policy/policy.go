// Package policy provides NUMA placement policies: implementations of the
// numa.Policy interface that the pmap layer's NUMA manager consults on
// every request.
//
// The paper's production policy is Threshold (§2.3.2): place every page in
// local memory until the consistency protocol has moved it between
// processors, in response to writes, more than a fixed number of times,
// then pin it in global memory forever. AllGlobal and AllLocal are the
// instrumentation policies used to measure the T_global and T_local
// baselines (§3.1); Pragma and Reconsider realize two extensions the paper
// discusses (§4.3, §5).
package policy

import (
	"fmt"
	"math"

	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// DefaultThreshold is the paper's default move limit ("a system-wide
// boot-time parameter which defaults to four").
const DefaultThreshold = 4

// Threshold is the paper's placement policy: LOCAL for any page that has
// not used up its threshold number of page moves, GLOBAL for any page that
// has.
type Threshold struct {
	Limit int
}

// NewThreshold returns the paper's policy with the given move limit.
func NewThreshold(limit int) *Threshold {
	if limit < 0 {
		panic(fmt.Sprintf("policy: negative threshold %d", limit))
	}
	return &Threshold{Limit: limit}
}

// NewDefault returns the paper's policy with its default limit of four.
func NewDefault() *Threshold { return NewThreshold(DefaultThreshold) }

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (t *Threshold) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if pg.Moves() >= t.Limit {
		return numa.Global
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (t *Threshold) Name() string {
	if t.Limit == math.MaxInt {
		return "never-pin"
	}
	return fmt.Sprintf("threshold(%d)", t.Limit)
}

// NeverPin returns a policy that caches pages locally no matter how often
// they move — the degenerate Threshold with an unreachable limit. Writably
// shared pages ping-pong between local memories forever.
func NeverPin() *Threshold { return &Threshold{Limit: math.MaxInt} }

// AllGlobal is the baseline policy used for the paper's T_global runs:
// every writable page lives in global memory. Read-only pages are still
// replicated, since "most reasonable NUMA systems will replicate read-only
// data and code" (§3.1).
type AllGlobal struct{}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (AllGlobal) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	if maxProt.CanWrite() {
		return numa.Global
	}
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:hotpath
func (AllGlobal) Name() string { return "all-global" }

// AllLocal is the baseline policy used for the paper's T_local runs on a
// single-processor machine: every page is placed in local memory.
type AllLocal struct{}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (AllLocal) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	return numa.Local
}

// Name implements numa.Policy.
//
//numalint:hotpath
func (AllLocal) Name() string { return "all-local" }

// Pragma honours application placement pragmas (§4.3, §4.4): pages hinted
// cacheable are always placed locally, pages hinted noncacheable always
// globally, pages hinted remote at their home processor, and unhinted
// pages fall through to an underlying policy.
type Pragma struct {
	Fallback numa.Policy
}

// NewPragma returns a pragma-honouring policy over fallback (the paper's
// Threshold default if fallback is nil).
func NewPragma(fallback numa.Policy) *Pragma {
	if fallback == nil {
		fallback = NewDefault()
	}
	return &Pragma{Fallback: fallback}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (p *Pragma) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	switch pg.Hint() {
	case numa.HintCacheable:
		return numa.Local
	case numa.HintNoncacheable:
		return numa.Global
	case numa.HintRemote:
		return numa.PlaceRemote
	default:
		return p.Fallback.CachePolicy(pg, proc, write, maxProt)
	}
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (p *Pragma) Name() string { return "pragma+" + p.Fallback.Name() }

// ReconsiderInterval implements numa.ReconsideringPolicy by forwarding
// to the fallback: 0, no sweep, when the fallback does not reconsider.
//
//numalint:hotpath
func (p *Pragma) ReconsiderInterval() sim.Time { return sweepInterval(p.Fallback) }

// AdviseThread implements numa.ThreadAdvisor by forwarding to the
// fallback, which gives no advice unless it advises.
//
//numalint:hotpath
func (p *Pragma) AdviseThread(pg *numa.Page, spec *topology.Spec, node int) (int, bool) {
	if a, ok := p.Fallback.(numa.ThreadAdvisor); ok {
		return a.AdviseThread(pg, spec, node)
	}
	return 0, false
}

// sweepInterval is pol's defrost-sweep interval, or 0 (no sweep) when
// pol does not reconsider; wrappers forward ReconsiderInterval with it.
//
//numalint:hotpath
func sweepInterval(pol numa.Policy) sim.Time {
	if r, ok := pol.(numa.ReconsideringPolicy); ok {
		return r.ReconsiderInterval()
	}
	return 0
}

// Reconsider is the §5 extension: like Threshold, but every Period requests
// that find a page pinned it forgives the page's accumulated moves, giving
// the page another chance to live in local memory. This models
// "periodically reconsidering the decision to pin a page in global memory".
//
// The per-page state lives in the page's policy word, which the manager
// zeroes for every new or recycled page record: the low 32 bits hold the
// move count forgiven at the last reconsideration, the high 32 bits the
// pinned requests since then.
type Reconsider struct {
	Limit  int
	Period int
}

// NewReconsider returns a reconsidering policy.
func NewReconsider(limit, period int) *Reconsider {
	if limit < 0 || period < 1 {
		panic(fmt.Sprintf("policy: bad reconsider parameters limit=%d period=%d", limit, period))
	}
	return &Reconsider{Limit: limit, Period: period}
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (r *Reconsider) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	w := pg.PolicyWord()
	forgiven := uint32(w)
	if pg.Moves()-int(forgiven) < r.Limit {
		return numa.Local
	}
	hits := uint32(w>>32) + 1
	if int(hits) >= r.Period {
		pg.SetPolicyWord(uint64(uint32(pg.Moves())))
		return numa.Local
	}
	pg.SetPolicyWord(uint64(hits)<<32 | uint64(forgiven))
	return numa.Global
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (r *Reconsider) Name() string {
	return fmt.Sprintf("reconsider(%d,%d)", r.Limit, r.Period)
}

// ReconsiderInterval implements numa.ReconsideringPolicy: the NUMA
// manager's daemon drops pinned pages' mappings this often so the policy
// sees them again (without it, a pinned page never faults and is never
// reconsidered).
//
//numalint:hotpath
func (r *Reconsider) ReconsiderInterval() sim.Time { return DefaultSweepInterval }

// Forced answers a fixed location for every request. It exists for protocol
// tests and for deriving the paper's Tables 1 and 2, where each row is "the
// policy said LOCAL" or "the policy said GLOBAL".
type Forced struct {
	Answer numa.Location
}

// CachePolicy implements numa.Policy.
//
//numalint:hotpath
func (f *Forced) CachePolicy(pg *numa.Page, proc int, write bool, maxProt mmu.Prot) numa.Location {
	return f.Answer
}

// Name implements numa.Policy.
//
//numalint:coldpath formats a report label; the manager only calls Name when tracing is on
func (f *Forced) Name() string { return "forced-" + f.Answer.String() }

// Compile-time interface checks.
var (
	_ numa.Policy              = (*Threshold)(nil)
	_ numa.Policy              = AllGlobal{}
	_ numa.Policy              = AllLocal{}
	_ numa.ReconsideringPolicy = (*Pragma)(nil)
	_ numa.ThreadAdvisor       = (*Pragma)(nil)
	_ numa.Policy              = (*Reconsider)(nil)
	_ numa.Policy              = (*Forced)(nil)
)
