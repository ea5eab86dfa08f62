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
// at the small sizes, once on three ACE processors and once on the
// four-socket machine (whose links and non-ACE cost binding the ACE pass
// never exercises), so a refactor of the harness or of the layers below
// it is proven against stored bytes rather than against itself. A result
// with a CSV form pins that too, in NAME_small_p3.csv.golden and
// NAME_small_p4_4socket.csv.golden. The tournament sets its own topology
// per cell, so only the ACE pass runs it. A newly registered experiment
// fails here until its goldens are recorded:
//
//	go test ./internal/harness -run TestRegistryGoldens -update
func TestRegistryGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	passes := []struct {
		subtest, golden string
		opts            Options
	}{
		{"", "_small_p3", Options{Small: true, NProc: 3}},
		{"_4socket", "_small_p4_4socket", Options{Small: true, NProc: 4, Topology: "4socket"}},
	}
	for _, pass := range passes {
		for _, name := range Names() {
			if name == "tournament" && pass.opts.Topology != "" {
				continue
			}
			t.Run(name+pass.subtest, func(t *testing.T) {
				e, _ := Lookup(name)
				res, err := e.Run(pass.opts)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name+pass.golden+".golden", res.Render())
				if c, ok := res.(CSVResult); ok {
					checkGolden(t, name+pass.golden+".csv.golden", c.RenderCSV())
				}
			})
		}
	}
}

// checkGolden compares got with testdata/golden, which must exist unless
// -update is recording it.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if _, err := os.Stat("testdata/" + golden); err != nil && !*update {
		t.Fatalf("no golden %s; record one with -update", golden)
	}
	if want := readGolden(t, golden, got); got != want {
		t.Errorf("%s diverged.\ngot:\n%s\nwant:\n%s", golden, got, want)
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
