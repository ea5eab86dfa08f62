// Package callers is the callers pass's fixture. The test checks it as a
// package under internal/, so every declaration needs a caller.
package callers

import "fmt"

// The package-level initializer is the fixture's only root.
var _ = Run()

// Run calls the declarations that have a caller.
func Run() int {
	var s Shape = square{side: 2}
	var err error = failure{}
	return Used() + s.Area() + len(err.Error()) + len(fmt.Sprint(square{}))
}

// Used has a caller.
func Used() int { return 1 }

// OnlyTested is called from the package's test file alone.
func OnlyTested() int { return 2 } // want `OnlyTested has no caller in non-test code: delete it, or give it a //numalint:api line`

func unused() int { return 3 } // want `unused has no caller in non-test code: delete it$`

// countdown's only caller is itself.
func countdown(n int) int { // want `countdown has no caller`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Shape is implemented by square.
type Shape interface{ Area() int }

type square struct{ side int }

// Area satisfies Shape, so calls through the interface reach it.
func (s square) Area() int { return s.side * s.side }

// String satisfies fmt.Stringer.
func (s square) String() string { return "square" }

// Perimeter satisfies no interface and has no caller.
func (s square) Perimeter() int { return 4 * s.side } // want `square.Perimeter has no caller`

type failure struct{}

// Error satisfies error.
func (failure) Error() string { return "failure" }

// asserted and pointed are kept only by blank assertions that they
// implement Shape, which check their method sets but make no values.
type asserted struct{} // want `asserted has no caller`

func (asserted) Area() int { return 0 }

type pointed struct{} // want `pointed has no caller`

func (*pointed) Area() int { return 0 }

var (
	_ Shape = asserted{}
	_ Shape = (*pointed)(nil)
)

// orphan's only mention is its own method's receiver.
type orphan struct{} // want `orphan has no caller`

func (orphan) Method() {} // want `orphan.Method has no caller`

// Public is deliberate surface.
//
//numalint:api the fixture's callers in another module
func Public() {}

// Handle is deliberate surface too.
//
//numalint:api the fixture's callers in another module
type Handle struct{}

// Unreasoned carries an api line with no reason.
//
//numalint:api
func Unreasoned() {} // want `Unreasoned's //numalint:api line needs a reason naming its callers`

// Needless is called, so its api line is not needed.
//
//numalint:api Run calls it // want `unneeded //numalint:api: Needless has a caller in non-test code`
func Needless() {}

// helper is unexported, so it cannot carry an api line.
//
//numalint:api an unexported name is no API // want `unneeded //numalint:api: helper is unexported`
func helper() {}

var _ = func() int { Needless(); helper(); return 0 }()

//numalint:api heads nothing // want `//numalint:api must head one function, method or type declaration`
