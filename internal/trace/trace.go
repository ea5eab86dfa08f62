// Package trace implements the reference-trace facility the paper calls
// for in §5 ("We have begun to make and analyze reference traces of
// parallel programs"): it records which processors read and write each
// virtual page and each word, classifies pages by sharing behaviour, and
// detects false sharing — pages that are writably shared even though no
// single word in them is (§4.2).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Class is a page's (or word's) sharing classification, per §4.2.
type Class int

// Sharing classes.
const (
	// Untouched: never referenced.
	Untouched Class = iota
	// Private: referenced by exactly one processor.
	Private
	// ReadShared: referenced by several processors, never written.
	ReadShared
	// WritablyShared: written by at least one processor and read or
	// written by more than one.
	WritablyShared
)

func (c Class) String() string {
	switch c {
	case Untouched:
		return "untouched"
	case Private:
		return "private"
	case ReadShared:
		return "read-shared"
	case WritablyShared:
		return "writably-shared"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// use is a compact per-proc usage record: bitmasks of readers and writers.
type use struct {
	readers uint16
	writers uint16
	reads   uint64
	writes  uint64
}

func (u *use) record(proc int, write bool) {
	bit := uint16(1) << uint(proc)
	if write {
		u.writers |= bit
		u.writes++
	} else {
		u.readers |= bit
		u.reads++
	}
}

func popcount(v uint16) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// classify applies §4.2's definitions.
func (u *use) classify() Class {
	users := u.readers | u.writers
	switch {
	case users == 0:
		return Untouched
	case popcount(users) == 1:
		return Private
	case u.writers == 0:
		return ReadShared
	default:
		return WritablyShared
	}
}

// PageReport describes one traced page.
type PageReport struct {
	VPN           uint32
	Class         Class
	Readers       int
	Writers       int
	Reads, Writes uint64
	// FalselyShared reports a writably-shared page none of whose words is
	// itself writably shared: the sharing is an accident of colocation.
	FalselyShared bool
}

// Collector accumulates a reference trace. Install its Hook as the
// kernel's RefTrace. Word-granularity tracking (needed for false-sharing
// detection) costs memory proportional to the number of distinct words
// touched and can be disabled.
type Collector struct {
	shift      uint
	trackWords bool
	pages      map[uint32]*use
	words      map[uint32]*use
}

// New creates a collector for the given page shift (log2 of the page
// size). trackWords enables per-word classification.
func New(pageShift uint, trackWords bool) *Collector {
	return &Collector{
		shift:      pageShift,
		trackWords: trackWords,
		pages:      make(map[uint32]*use),
		words:      make(map[uint32]*use),
	}
}

// Hook returns the function to install as vm.Kernel.RefTrace.
func (c *Collector) Hook() func(proc int, va uint32, write bool) {
	return c.Record
}

// Record notes one reference.
func (c *Collector) Record(proc int, va uint32, write bool) {
	vpn := va >> c.shift
	u := c.pages[vpn]
	if u == nil {
		u = &use{}
		c.pages[vpn] = u
	}
	u.record(proc, write)
	if c.trackWords {
		w := va >> 2
		uw := c.words[w]
		if uw == nil {
			uw = &use{}
			c.words[w] = uw
		}
		uw.record(proc, write)
	}
}

// Pages returns the per-page reports, sorted by page number.
func (c *Collector) Pages() []PageReport {
	vpns := make([]uint32, 0, len(c.pages))
	//numalint:ordered vpns is sorted below
	for vpn := range c.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	out := make([]PageReport, 0, len(vpns))
	for _, vpn := range vpns {
		u := c.pages[vpn]
		r := PageReport{
			VPN:     vpn,
			Class:   u.classify(),
			Readers: popcount(u.readers),
			Writers: popcount(u.writers),
			Reads:   u.reads,
			Writes:  u.writes,
		}
		if r.Class == WritablyShared && c.trackWords {
			r.FalselyShared = !c.pageHasWritablySharedWord(vpn)
		}
		out = append(out, r)
	}
	return out
}

func (c *Collector) pageHasWritablySharedWord(vpn uint32) bool {
	wordsPerPage := uint32(1) << (c.shift - 2)
	first := vpn << (c.shift - 2)
	for w := first; w < first+wordsPerPage; w++ {
		if u, ok := c.words[w]; ok && u.classify() == WritablyShared {
			return true
		}
	}
	return false
}

// Summary aggregates a trace.
type Summary struct {
	Pages          int
	ByClass        map[Class]int
	FalselyShared  int
	Reads, Writes  uint64
	WordsTracked   int
	WordsByClass   map[Class]int
	FalseSharePct  float64 // falsely shared / writably shared pages
	WritablyShared int
}

// Summarize aggregates the collector's trace.
func (c *Collector) Summarize() Summary {
	s := Summary{
		ByClass:      make(map[Class]int),
		WordsByClass: make(map[Class]int),
		WordsTracked: len(c.words),
	}
	for _, r := range c.Pages() {
		s.Pages++
		s.ByClass[r.Class]++
		s.Reads += r.Reads
		s.Writes += r.Writes
		if r.Class == WritablyShared {
			s.WritablyShared++
			if r.FalselyShared {
				s.FalselyShared++
			}
		}
	}
	//numalint:ordered the loop only counts
	for _, u := range c.words {
		s.WordsByClass[u.classify()]++
	}
	if s.WritablyShared > 0 {
		s.FalseSharePct = 100 * float64(s.FalselyShared) / float64(s.WritablyShared)
	}
	return s
}

// Render formats the summary as a small report.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reference trace: %d pages touched, %d reads, %d writes\n", s.Pages, s.Reads, s.Writes)
	for _, cl := range []Class{Private, ReadShared, WritablyShared} {
		fmt.Fprintf(&b, "  %-16s %d pages\n", cl.String()+":", s.ByClass[cl])
	}
	if s.WritablyShared > 0 {
		fmt.Fprintf(&b, "  falsely shared:  %d of %d writably-shared pages (%.0f%%)\n",
			s.FalselyShared, s.WritablyShared, s.FalseSharePct)
	}
	return b.String()
}
