// Package ifacecontract exercises interface-contract enforcement:
// Policy.Decide is annotated hotpath, so every implementing type declared
// here must annotate its Decide method hotpath or coldpath.
package ifacecontract

// Policy is the contract interface.
type Policy interface {
	//numalint:hotpath
	Decide(n int) int
}

// good annotates its implementation and stays clean.
type good struct{}

//numalint:hotpath
func (good) Decide(n int) int { return n }

// cold sanctions its implementation as a slow path.
type cold struct{}

//numalint:coldpath diagnostic-only implementation
func (cold) Decide(n int) int { return len(make([]int, n)) }

// bad implements the contract without any annotation, and its body is
// walked anyway so the violation also surfaces.
type bad struct{}

func (bad) Decide(n int) int { // want `\(bad\)\.Decide implements hot-path interface method \(fixture/ifacecontract\.Policy\)\.Decide and must be annotated`
	return len(make([]int, n)) // want `make allocates`
}

var _ = []Policy{good{}, cold{}, bad{}}
