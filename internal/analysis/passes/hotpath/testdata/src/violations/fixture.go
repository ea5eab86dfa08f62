// Package violations exercises the hotpath op scanner and edge checks.
package violations

import "fmt"

type big struct{ a, b int }

// T carries a method for the method-value and dispatch checks.
type T struct{ n int }

// M is hot-clean on its own.
func (t T) M() int { return t.n }

// I is a local interface whose method carries no hotpath directive.
type I interface{ M() int }

// Root is a hot-path root covering every forbidden operation.
//
//numalint:hotpath
func Root(n int, xs []int, m map[string]int, s string, bs []byte) {
	xs = append(xs, n)       // want `append may grow its backing array`
	_ = make([]int, n)       // want `make allocates`
	_ = new(big)             // want `new allocates`
	_ = &big{a: n}           // want `composite literal escapes to the heap`
	_ = []int{n}             // want `slice literal allocates`
	_ = map[string]int{s: n} // want `map literal allocates`
	_ = s + s                // want `string concatenation allocates`
	_ = string(bs)           // want `\[\]byte/\[\]rune to string conversion allocates`
	_ = []byte(s)            // want `string to \[\]byte/\[\]rune conversion allocates`
	var i any
	i = n // want `assignment boxes int into interface`
	_ = i
	for k := range m { // want `iterates a map`
		_ = k
	}
	_ = fmt.Sprint(n) // want `call of fmt.Sprint allocates \(formatting and reflection are banned on hot paths\)` `argument boxes int into interface`
	helper(n)
}

// helper is reached from Root; its own violation carries the chain.
func helper(n int) { leaf(n) }

func leaf(n int) {
	_ = make([]int, n) // want `make allocates \[hot: Root → helper → leaf\]`
}

// RootBox checks boxing at returns.
//
//numalint:hotpath
func RootBox(n int) any {
	return n // want `return boxes int into interface`
}

// RootIface checks dispatch through an unannotated interface method.
//
//numalint:hotpath
func RootIface(i I) int {
	return i.M() // want `interface dispatch call \(fixture/violations\.I\)\.M is not annotated //numalint:hotpath`
}

// RootMethodValue checks the method-value closure report.
//
//numalint:hotpath
func RootMethodValue(t T) func() int {
	f := t.M // want `method value M allocates a closure`
	return f
}

// RootDynamic checks closures, go statements and dynamic calls.
//
//numalint:hotpath
func RootDynamic(n int) {
	f := func() int { return n } // want `function literal \(a closure may allocate\)`
	_ = f()                      // want `call to function value f cannot be verified`
	go helper(n)                 // want `go statement allocates a goroutine`
}
