package harness

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// The goldens in testdata were captured before the topology refactor, when
// ace/mem/numa were hard-wired to the two-level ACE. They pin the contract
// of that refactor: the ACE, expressed as a registered topology through the
// generalized matrix-and-home-node path, reproduces the published tables
// byte for byte. Regenerate only with a deliberate modelling change:
//
//	go test ./internal/harness -run TestTable3GoldenACE -update
//	go test ./internal/harness -run TestFigure1Golden -update
//
// (and justify the diff in the commit message).

func readGolden(t *testing.T, name string, got string) string {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestTable3GoldenACE runs every Table 3 application on the ACE topology
// through the generalized (topology-parameterized) machine and compares the
// rendered table byte-for-byte against the pre-refactor golden.
func TestTable3GoldenACE(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 sweep")
	}
	rows, err := Table3(Options{Small: true, NProc: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := RenderTable3(rows)
	want := readGolden(t, "table3_small_p3.golden", got)
	if got != want {
		t.Errorf("Table 3 diverged from the pre-topology golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryGoldens pins every registered experiment's rendered output
// at the small sizes on three processors, so a refactor of the harness or
// of the layers below it is proven against stored bytes rather than
// against itself. A newly registered experiment fails here until its
// golden is recorded:
//
//	go test ./internal/harness -run TestRegistryGoldens -update
func TestRegistryGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, _ := Lookup(name)
			res, err := e.Run(Options{Small: true, NProc: 3})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Render()
			path := "testdata/" + name + "_small_p3.golden"
			if _, err := os.Stat(path); err != nil && !*update {
				t.Fatalf("experiment %q has no golden %s; record one with -update", name, path)
			}
			if want := readGolden(t, name+"_small_p3.golden", got); got != want {
				t.Errorf("%s diverged from its golden.\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// TestFigure1Golden pins the default machine's rendered architecture text.
func TestFigure1Golden(t *testing.T) {
	got, err := Figure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, "figure1_default.golden", got)
	if got != want {
		t.Errorf("Figure 1 diverged.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTable3ACEExplicitTopology: naming the topology "ace" selects the same
// machine as the default empty string — same table, same bytes.
func TestTable3ACEExplicitTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 run")
	}
	base := Options{Small: true, NProc: 3, Parallelism: 1}
	def, err := Table3Single(base, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	named := base
	named.Topology = "ace"
	got, err := Table3Single(named, "Gfetch")
	if err != nil {
		t.Fatal(err)
	}
	if RenderTable3([]Table3Row{got}) != RenderTable3([]Table3Row{def}) {
		t.Errorf("-topology ace diverged from the default machine")
	}
}
