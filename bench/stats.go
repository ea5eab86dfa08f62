package main

import (
	"sort"
	"time"
)

// summary is one metric's samples and their order statistics.
type summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

// summarize computes the median and quartiles of samples. The quartiles
// use the exclusive method, as Python's statistics.quantiles(n=4) does;
// with one sample both quartiles are that sample.
func summarize(unit string, samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{Unit: unit, Samples: samples, N: len(s)}
	switch n := len(s); {
	case n == 0:
	case n == 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
	default:
		out.Median = (s[(n-1)/2] + s[n/2]) / 2
		q := func(i int) float64 {
			j := i * (n + 1) / 4
			j = min(max(j, 1), n-1)
			delta := i*(n+1) - j*4
			return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
		out.Q1, out.Q3 = q(1), q(3)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// span is one timed interval of the benchmark's own work, with the span
// that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// spanLog keeps spans in memory until the benchmark writes them out.
type spanLog struct{ spans []span }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return len(l.spans)
}

// end closes the span with the given id.
func (l *spanLog) end(id int) { l.spans[id-1].End = time.Now().UnixNano() }

// adopt appends spans recorded by a child process, renumbered, with the
// child's roots hung under parent.
func (l *spanLog) adopt(child []span, parent int) {
	base := len(l.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}
