package workloads

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// FFT performs a two-dimensional fast Fourier transform of an S×S array of
// complex floating-point numbers (the paper used 256×256, parallelized
// with the EPEX FORTRAN preprocessor). In the EPEX model shared and
// private data are segregated: the matrix and twiddle table are shared,
// each worker's row/column workspace is private. Baylor and Rathi found
// about 95% of such a program's data references are private (§3.2), which
// is the behaviour the workspace structure reproduces.
type FFT struct {
	S int // side; power of two

	task   *vm.Task
	matrix uint32 // S*S complex128, row major
	twid   uint32 // S/2 complex128 twiddle factors
}

// NewFFT creates an FFT instance; zero selects the paper's size (256×256).
func NewFFT(s int) *FFT {
	if s <= 0 {
		s = 256
	}
	if s&(s-1) != 0 {
		panic(fmt.Sprintf("workloads: FFT size %d not a power of two", s))
	}
	return &FFT{S: s}
}

// Name implements Workload.
func (w *FFT) Name() string { return "FFT" }

// FetchHeavy implements Workload.
func (w *FFT) FetchHeavy() bool { return false }

// initValue is the deterministic input matrix.
func fftInit(i, j int) complex128 {
	re := math.Sin(float64(1+i*3+j)) * 0.5
	im := math.Cos(float64(2+i+j*5)) * 0.25
	return complex(re, im)
}

// fft1d is the pure radix-2 DIT transform used both by the simulated
// workers (with charging around it) and by the host-side verification.
// buf length must be a power of two; tw holds e^{-2πi k/len(buf)} for
// k < len(buf)/2.
func fft1d(buf []complex128, tw []complex128) {
	n := len(buf)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wv := tw[k*step]
				b := buf[start+half+k] * wv
				a := buf[start+k]
				buf[start+k] = a + b
				buf[start+half+k] = a - b
			}
		}
	}
}

// cAddr returns the VA of complex element k in a region of complex128s.
func cAddr(base uint32, k int) uint32 { return base + uint32(k*16) }

// loadC / storeC move one complex number between simulated memory and the
// host value, charging four 32-bit references each way.
func loadC(c *vm.Context, va uint32) complex128 {
	return complex(c.LoadF64(va), c.LoadF64(va+8))
}

func storeC(c *vm.Context, va uint32, v complex128) {
	c.StoreF64(va, real(v))
	c.StoreF64(va+8, imag(v))
}

// fft1dSim runs the same transform as fft1d against a private workspace in
// simulated memory, charging the butterfly arithmetic and the workspace
// and twiddle references the FORTRAN code generator would emit
// (memory-resident operands and temporaries).
func (w *FFT) fft1dSim(c *vm.Context, buf uint32) {
	n := w.S
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			vi := loadC(c, cAddr(buf, i))
			vj := loadC(c, cAddr(buf, j))
			storeC(c, cAddr(buf, i), vj)
			storeC(c, cAddr(buf, j), vi)
		}
		c.Compute(2)
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				wv := loadC(c, cAddr(w.twid, k*step)) // shared, replicated
				b := loadC(c, cAddr(buf, start+half+k))
				a := loadC(c, cAddr(buf, start+k))
				t := b * wv
				c.FMul(4)
				c.FAdd(2)
				// The temporary t lives in the stack frame.
				storeC(c, cAddr(buf, start+half+k), t) // reuse slot as temp
				c.FAdd(4)
				storeC(c, cAddr(buf, start+k), a+t)
				storeC(c, cAddr(buf, start+half+k), a-t)
				c.Compute(9) // EPEX subscript arithmetic and loop control
			}
		}
	}
}

// Start implements Workload.
func (w *FFT) Start(rt *cthreads.Runtime, nworkers int) func() error {
	s := w.S
	w.task = rt.Task()
	w.matrix = rt.Alloc("matrix", uint32(s*s*16))
	w.twid = rt.Alloc("twiddles", uint32(s/2*16))
	bufs := make([]uint32, nworkers)
	// Per-worker private column blocks for the second pass: EPEX FORTRAN
	// partitions the DO loop statically, so each worker copies its block
	// of columns in once, transforms them privately, and writes them back
	// once.
	colsPer := (s + nworkers - 1) / nworkers
	blocks := make([]uint32, nworkers)
	for i := range bufs {
		bufs[i] = rt.Alloc(fmt.Sprintf("workspace%d", i), uint32(s*16))
		blocks[i] = rt.Alloc(fmt.Sprintf("colblock%d", i), uint32(colsPer*s*16))
	}
	barrier := cthreads.NewBarrier(nworkers)

	rt.StartMain(func(mc *vm.Context) {
		// Initialization on the main processor.
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				storeC(mc, cAddr(w.matrix, i*s+j), fftInit(i, j))
			}
		}
		for k := 0; k < s/2; k++ {
			storeC(mc, cAddr(w.twid, k), cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(s))))
			mc.FMul(2)
			mc.FAdd(2)
		}
		workers := rt.ForkWorkers(mc, nworkers, func(id int, c *vm.Context) {
			buf := bufs[id]
			// Row pass over a statically assigned block of contiguous
			// rows (EPEX partitions the DO loop statically): each worker's
			// matrix pages are touched almost exclusively by that worker.
			rowsPer := (s + nworkers - 1) / nworkers
			r0 := id * rowsPer
			r1 := r0 + rowsPer
			if r1 > s {
				r1 = s
			}
			for row := r0; row < r1; row++ {
				for j := 0; j < s; j++ {
					storeC(c, cAddr(buf, j), loadC(c, cAddr(w.matrix, row*s+j)))
				}
				w.fft1dSim(c, buf)
				for j := 0; j < s; j++ {
					storeC(c, cAddr(w.matrix, row*s+j), loadC(c, cAddr(buf, j)))
				}
			}
			barrier.Wait(c)
			// Column pass over a statically assigned block of columns:
			// copy the block into private memory (one replication of each
			// matrix page per worker), transform every column in place,
			// write the block back (one ownership transfer per page per
			// worker).
			block := blocks[id]
			c0 := id * colsPer
			c1 := c0 + colsPer
			if c1 > s {
				c1 = s
			}
			for col := c0; col < c1; col++ {
				for i := 0; i < s; i++ {
					storeC(c, cAddr(block, (col-c0)*s+i), loadC(c, cAddr(w.matrix, i*s+col)))
				}
			}
			for col := c0; col < c1; col++ {
				w.fft1dSim(c, block+uint32((col-c0)*s*16))
			}
			for col := c0; col < c1; col++ {
				for i := 0; i < s; i++ {
					storeC(c, cAddr(w.matrix, i*s+col), loadC(c, cAddr(block, (col-c0)*s+i)))
				}
			}
		})
		for _, wk := range workers {
			wk.Join(mc)
		}
	})
	return w.verify
}

func (w *FFT) verify() error {
	s := w.S
	// Host-side reference: same algorithm, same operation order.
	tw := make([]complex128, s/2)
	for k := range tw {
		tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(s)))
	}
	ref := make([]complex128, s*s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			ref[i*s+j] = fftInit(i, j)
		}
	}
	row := make([]complex128, s)
	for i := 0; i < s; i++ {
		copy(row, ref[i*s:(i+1)*s])
		fft1d(row, tw)
		copy(ref[i*s:(i+1)*s], row)
	}
	col := make([]complex128, s)
	for j := 0; j < s; j++ {
		for i := 0; i < s; i++ {
			col[i] = ref[i*s+j]
		}
		fft1d(col, tw)
		for i := 0; i < s; i++ {
			ref[i*s+j] = col[i]
		}
	}
	for k := 0; k < s*s; k++ {
		va := cAddr(w.matrix, k)
		got := complex(math.Float64frombits(readWord64(w.task, va)),
			math.Float64frombits(readWord64(w.task, va+8)))
		if d := cmplx.Abs(got - ref[k]); d > 1e-9*(1+cmplx.Abs(ref[k])) {
			return fmt.Errorf("FFT: element %d = %v, want %v (|Δ|=%g)", k, got, ref[k], d)
		}
	}
	return nil
}
