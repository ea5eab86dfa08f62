package harness

import (
	"reflect"
	"testing"

	"numasim/internal/topology"
)

// TestSweepsLeaveSharedSpecsUnchanged: every machine of a shape shares
// the one spec topology.ByName returns. After a degraded availability
// sweep and a tournament over every topology, each shared spec must be
// the one handed out before, equal to a fresh build in every table, so no
// caller wrote through a shared slice.
func TestSweepsLeaveSharedSpecsUnchanged(t *testing.T) {
	fresh := map[string]func(int) (*topology.Spec, error){
		"ace": topology.ACE, "4socket": topology.FourSocket, "mesh8": topology.Mesh8,
	}
	opts := Options{NProc: 4, Small: true, Parallelism: 4}
	shared := map[string]*topology.Spec{}
	for _, name := range topology.Names() {
		s, err := topology.ByName(name, opts.NProc)
		if err != nil {
			t.Fatal(err)
		}
		shared[name] = s
	}
	if _, err := AvailabilitySweep(opts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tournamentGrid(opts, topology.Names(), testWorks, testPols); err != nil {
		t.Fatal(err)
	}
	for _, name := range topology.Names() {
		s, err := topology.ByName(name, opts.NProc)
		if err != nil {
			t.Fatal(err)
		}
		if s != shared[name] {
			t.Errorf("%s: ByName returned another spec after the sweeps", name)
		}
		want, err := fresh[name](opts.NProc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: the shared spec no longer equals a fresh build", name)
		}
	}
}
