package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numasim/internal/benchfmt"
)

func writeFile(t *testing.T, name string, f *benchfmt.File) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(out); err != nil {
		t.Fatal(err)
	}
	out.Close()
	return path
}

func bench(name string, ns, allocs float64) benchfmt.Result {
	return benchfmt.Result{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestWithinTolerance(t *testing.T) {
	old := writeFile(t, "old.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 100, 0), bench("BenchmarkB", 1000, 10),
	}})
	new := writeFile(t, "new.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 110, 0), bench("BenchmarkB", 900, 11),
	}})
	var out, errb bytes.Buffer
	if code := run([]string{"-tolerance", "0.20", old, new}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "OK: 2 benchmarks") {
		t.Errorf("missing OK line:\n%s", out.String())
	}
}

func TestTimeRegressionFails(t *testing.T) {
	old := writeFile(t, "old.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 100, 0),
	}})
	new := writeFile(t, "new.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 130, 0),
	}})
	var out, errb bytes.Buffer
	if code := run([]string{"-tolerance", "0.20", old, new}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on 30%% time regression, want 1", code)
	}
	if !strings.Contains(errb.String(), "ns/op regressed") {
		t.Errorf("missing regression report:\n%s", errb.String())
	}
}

func TestZeroAllocPathMustStayZero(t *testing.T) {
	old := writeFile(t, "old.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkHot", 100, 0),
	}})
	new := writeFile(t, "new.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkHot", 100, 1),
	}})
	var out, errb bytes.Buffer
	if code := run([]string{old, new}, &out, &errb); code != 1 {
		t.Fatalf("exit %d when a zero-alloc path starts allocating, want 1", code)
	}
	if !strings.Contains(errb.String(), "allocs/op regressed") {
		t.Errorf("missing allocs regression report:\n%s", errb.String())
	}
}

// TestBytesPerOpGatedLikeAllocs: B/op gets the allocs/op rule, the same
// relative tolerance, and a row at 0 B/op must stay at 0.
func TestBytesPerOpGatedLikeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new float64
		code     int
	}{
		{"within tolerance", 1000, 1100, 0},
		{"shrank", 1000000, 9000, 0},
		{"grew past tolerance", 1000, 1300, 1},
		{"zero stays zero", 0, 0, 0},
		{"zero starts allocating", 0, 8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := func(name string, bytes float64) string {
				r := bench("BenchmarkA", 100, 1)
				r.BytesPerOp = bytes
				return writeFile(t, name, &benchfmt.File{Benchmarks: []benchfmt.Result{r}})
			}
			var out, errb bytes.Buffer
			if code := run([]string{file("old.json", tc.old), file("new.json", tc.new)}, &out, &errb); code != tc.code {
				t.Fatalf("exit %d for B/op %v -> %v, want %d; stderr: %s", code, tc.old, tc.new, tc.code, errb.String())
			}
			if tc.code == 1 && !strings.Contains(errb.String(), "B/op regressed") {
				t.Errorf("missing B/op regression report:\n%s", errb.String())
			}
		})
	}
}

func TestDisjointNamesWarnButCompareCommon(t *testing.T) {
	old := writeFile(t, "old.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 100, 0), bench("BenchmarkOldOnly", 5, 0),
	}})
	new := writeFile(t, "new.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 100, 0), bench("BenchmarkNewOnly", 5, 0),
	}})
	var out, errb bytes.Buffer
	if code := run([]string{old, new}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (disjoint names are warnings)", code)
	}
	if !strings.Contains(errb.String(), "BenchmarkOldOnly") || !strings.Contains(errb.String(), "BenchmarkNewOnly") {
		t.Errorf("missing warnings:\n%s", errb.String())
	}
}

func TestNoCommonBenchmarksIsAnError(t *testing.T) {
	old := writeFile(t, "old.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkA", 100, 0),
	}})
	new := writeFile(t, "new.json", &benchfmt.File{Benchmarks: []benchfmt.Result{
		bench("BenchmarkB", 100, 0),
	}})
	var out, errb bytes.Buffer
	if code := run([]string{old, new}, &out, &errb); code != 2 {
		t.Fatalf("exit %d with no shared benchmarks, want 2", code)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"only-one.json"}, &out, &errb); code != 2 {
		t.Errorf("exit %d with one arg, want 2", code)
	}
	if code := run([]string{"/does/not/exist.json", "/nor/this.json"}, &out, &errb); code != 2 {
		t.Errorf("exit %d on missing files, want 2", code)
	}
}
