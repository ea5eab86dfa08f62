// Package fixture exercises the maporder analyzer: every range over a
// map needs a //numalint:ordered directive with a reason, whatever its
// body does; a directive without a reason, or attached to no range over
// a map, is reported too.
package fixture

import (
	"fmt"
	"sort"
	"strings"
)

// Bodies that emit in iteration order are reported.

func appendValues(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `range over map m needs //numalint:ordered <reason>`
		out = append(out, v)
	}
	return out
}

func buildString(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `range over map m needs //numalint:ordered <reason>`
		b.WriteString(k)
	}
	return b.String()
}

func printDirectly(m map[string]int) {
	for k, v := range m { // want `range over map m needs //numalint:ordered <reason>`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func sendKeys(m map[string]int, ch chan string) {
	for k := range m { // want `range over map m needs //numalint:ordered <reason>`
		ch <- k
	}
}

func concat(m map[string]int) string {
	s := ""
	for k := range m { // want `range over map m needs //numalint:ordered <reason>`
		s += k
	}
	return s
}

func sliceStore(m map[int]string, out []string) {
	for i, v := range m { // want `range over map m needs //numalint:ordered <reason>`
		out[i%len(out)] = v
	}
}

// Order-independent bodies and the key-collection idiom are reported
// too: the rule does not read the body, the reason says why it is safe.

func countValues(m map[string]int) map[int]int {
	counts := make(map[int]int)
	for _, v := range m { // want `range over map m needs //numalint:ordered <reason>`
		counts[v]++
	}
	return counts
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over map m needs //numalint:ordered <reason>`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// A named map type is a map.

type table map[string]int

func (t table) sum() int {
	total := 0
	for _, v := range t { // want `range over map t needs //numalint:ordered <reason>`
		total += v
	}
	return total
}

// A directive with a reason, on the line above or the range's own line,
// makes the range clean.

func annotated(m map[string]int) []int {
	var out []int
	//numalint:ordered out is sorted below
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func annotatedSameLine(m map[string]int) int {
	total := 0
	for _, v := range m { //numalint:ordered the loop only sums
		total += v
	}
	return total
}

// A directive must give a reason.

func noReason(m map[string]int) int {
	total := 0
	//numalint:ordered
	for _, v := range m { // want `range over map m: its //numalint:ordered needs a reason`
		total += v
	}
	return total
}

// A directive attached to nothing is reported, so stale annotations
// cannot accumulate: two lines above a range, or above a range over a
// slice.

func stale(m map[string]int) int {
	//numalint:ordered stale, attached to nothing // want `unused //numalint:ordered directive`
	total := 0
	for _, v := range m { // want `range over map m needs //numalint:ordered <reason>`
		total += v
	}
	return total
}

func overSlice(s []int) int {
	total := 0
	//numalint:ordered a slice has an order // want `unused //numalint:ordered directive`
	for _, v := range s {
		total += v
	}
	return total
}
