package benchfmt

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: numasim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable3/FFT-8         	     100	   9879912 ns/op	         0.9921 alpha	         0.4413 beta	         1.285 gamma	  496676 B/op	    1103 allocs/op
BenchmarkLocalAccess-8        	 5403738	       214.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkPickManyThreads/64-8 	 1000000	      1023 ns/op	       0 allocs/op
some test chatter that is not a benchmark
PASS
ok  	numasim	42.1s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" || !strings.Contains(f.CPU, "Xeon") {
		t.Errorf("header not captured: %+v", f)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(f.Benchmarks))
	}
	by := f.ByName()
	fft, ok := by["BenchmarkTable3/FFT"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: have %v", f.Benchmarks)
	}
	if fft.NsPerOp != 9879912 || fft.AllocsPerOp != 1103 || fft.BytesPerOp != 496676 {
		t.Errorf("FFT mis-parsed: %+v", fft)
	}
	if got := fft.Metrics["alpha"]; got != 0.9921 {
		t.Errorf("alpha = %v, want 0.9921", got)
	}
	if got := fft.Metrics["gamma"]; got != 1.285 {
		t.Errorf("gamma = %v, want 1.285", got)
	}
	local := by["BenchmarkLocalAccess"]
	if local.NsPerOp != 214.6 || local.AllocsPerOp != 0 || local.Iterations != 5403738 {
		t.Errorf("LocalAccess mis-parsed: %+v", local)
	}
	if _, ok := by["BenchmarkPickManyThreads/64"]; !ok {
		t.Errorf("sub-benchmark name lost: %v", f.Benchmarks)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Error("want error on input with no benchmark lines")
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	f.Date = "2026-08-08"
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Date != "2026-08-08" || len(back.Benchmarks) != len(f.Benchmarks) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range f.Benchmarks {
		a, b := f.Benchmarks[i], back.Benchmarks[i]
		if a.Name != b.Name || a.NsPerOp != b.NsPerOp || a.AllocsPerOp != b.AllocsPerOp {
			t.Errorf("benchmark %d changed: %+v vs %+v", i, a, b)
		}
		for k, v := range a.Metrics {
			if b.Metrics[k] != v {
				t.Errorf("%s metric %s: %v vs %v", a.Name, k, v, b.Metrics[k])
			}
		}
	}
}

// TestDuplicatesFoldToMedianAndMaxAllocs: repeated names, as from -count
// or the rounds of an A/B run, fold into the median ns/op (the mean of the
// middle two for an even count) and the largest allocs/op and B/op.
func TestDuplicatesFoldToMedianAndMaxAllocs(t *testing.T) {
	in := "BenchmarkX-4 100 50.0 ns/op 8 B/op 3 allocs/op\n" +
		"BenchmarkX-4 200 40.0 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkX-4 300 90.0 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkY-4 100 10.0 ns/op 0 allocs/op\n" +
		"BenchmarkY-4 100 30.0 ns/op 0 allocs/op\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	x, y := f.Benchmarks[0], f.Benchmarks[1]
	if x.NsPerOp != 50 || x.AllocsPerOp != 3 || x.BytesPerOp != 8 {
		t.Errorf("BenchmarkX folded to %+v, want median 50 ns/op, max 3 allocs/op and 8 B/op", x)
	}
	if y.NsPerOp != 20 || y.AllocsPerOp != 0 {
		t.Errorf("BenchmarkY folded to %+v, want 20 ns/op and 0 allocs/op", y)
	}
}
