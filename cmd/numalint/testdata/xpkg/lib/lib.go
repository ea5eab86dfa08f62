// Package lib declares the contracts the app package is checked against:
// each lives only in a directive on its own declaration.
package lib

// Vetted may be called from hot code in any package.
//
//numalint:hotpath
func Vetted(n int) int { return n + 1 }

// Unvetted carries no directive, so hot code may not call it.
func Unvetted(n int) int { return n * 2 }

// Sink is dispatched through from hot code.
type Sink interface {
	// Put must not allocate in any implementation.
	//
	//numalint:hotpath
	Put(n int)
}

// Phase is a state enum: switches over it must be exhaustive.
//
//numalint:stateenum
type Phase int

// The phases.
const (
	Idle Phase = iota
	Busy
	Done
)

// Meters is a unit.
//
//numalint:unit
type Meters float64

// Feet is a unit.
//
//numalint:unit
type Feet float64
