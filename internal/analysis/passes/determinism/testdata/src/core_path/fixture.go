// Package fixture is restricted only because it is type-checked under a
// core import path (the tests place it below numasim/internal/sim and
// numasim/internal/harness): every ambient-input reference below must be
// reported.
package fixture

import (
	"math/rand" // want `import of math/rand \(package-level randomness\)`
	"os"
	"time"
)

func wallClock() int64 {
	t := time.Now()                            // want `time\.Now \(wall clock\)`
	time.Sleep(0)                              // want `time\.Sleep \(wall-clock delay\)`
	return t.UnixNano() + int64(time.Since(t)) // want `time\.Since \(wall clock\)`
}

func entropy() int {
	return rand.Int() + os.Getpid() // want `os\.Getpid \(process identity\)`
}

func environment() string {
	v, _ := os.LookupEnv("HOME") // want `os\.LookupEnv \(ambient environment\)`
	return v
}

// Virtual-time constructs are fine: only ambient sources are banned.
func allowed() time.Duration {
	return 3 * time.Second
}
