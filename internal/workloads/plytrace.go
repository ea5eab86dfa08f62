package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// PlyTrace is modelled on Garcia's polygon renderer: "a floating-point
// intensive C-threads program for rendering artificial images in which
// surfaces are approximated by polygons. One of its phases is parallelized
// by using as a work pile its queue of lists of polygons to be rendered"
// (§3.2).
//
// The scene's triangles are grouped into per-band lists (the "lists of
// polygons"); the work pile hands out lists. Each worker transforms its
// polygons — floating-point matrix work against the shared, replicated
// scene description — and rasterizes them, clipped to the band, into the
// shared z-buffer and image. A band's rows are written only by the worker
// that drew its list, so most z-buffer pages stay local; pages straddling
// a band boundary are written by two workers and exhibit exactly the
// false sharing of §4.2.
type PlyTrace struct {
	NPoly int
	W, H  int
	Bands int // horizontal bands (= polygon lists)

	task  *vm.Task
	zbuf  uint32
	image uint32
	verts uint32
}

// NewPlyTrace creates a PlyTrace instance; zeros select defaults.
func NewPlyTrace(npoly, w, h int) *PlyTrace {
	if npoly <= 0 {
		npoly = 1600
	}
	if w <= 0 {
		w = 128
	}
	if h <= 0 {
		h = 128
	}
	return &PlyTrace{NPoly: npoly, W: w, H: h, Bands: 16}
}

// Name implements Workload.
func (w *PlyTrace) Name() string { return "PlyTrace" }

// FetchHeavy implements Workload.
func (w *PlyTrace) FetchHeavy() bool { return false }

// tri is one model triangle before transformation.
type tri struct {
	x, y, z [3]float64 // model-space vertices
	color   uint32
}

// scene generates the deterministic model: NPoly triangles jittered around
// band centres, with strictly distinct depths so the z-buffer winner per
// pixel is order independent.
func (w *PlyTrace) scene() []tri {
	out := make([]tri, w.NPoly)
	bh := float64(w.H) / float64(w.Bands)
	rng := uint32(12345)
	next := func() float64 {
		rng = rng*1664525 + 1013904223
		return float64(rng>>8) / float64(1<<24) // [0,1)
	}
	for i := range out {
		band := i % w.Bands
		cy := (float64(band) + 0.5) * bh
		cx := next() * float64(w.W)
		var t tri
		for v := 0; v < 3; v++ {
			t.x[v] = cx + (next()-0.5)*float64(w.W)*0.25
			t.y[v] = cy + (next()-0.5)*bh*1.6
		}
		depth := 10 + float64(i)*0.5 // distinct per triangle
		t.z[0], t.z[1], t.z[2] = depth, depth, depth
		t.color = uint32(i)*2654435761 | 1
		out[i] = t
	}
	return out
}

// pixel is one covered pixel with its integer depth key.
type pixel struct {
	x, y  int
	depth uint32
}

// rasterize computes the pixels covered by a screen-space triangle within
// the clip rows [clipY0, clipY1), using exact integer edge functions (28.4
// fixed point), so the simulated renderer and the host-side verifier cover
// identical pixels.
func rasterize(t tri, width int, clipY0, clipY1 int) []pixel {
	const sub = 16 // 28.4 fixed point
	xi := [3]int64{int64(t.x[0] * sub), int64(t.x[1] * sub), int64(t.x[2] * sub)}
	yi := [3]int64{int64(t.y[0] * sub), int64(t.y[1] * sub), int64(t.y[2] * sub)}
	minX := int(min3(xi[0], xi[1], xi[2]) / sub)
	maxX := int(max3(xi[0], xi[1], xi[2])/sub) + 1
	minY := int(min3(yi[0], yi[1], yi[2]) / sub)
	maxY := int(max3(yi[0], yi[1], yi[2])/sub) + 1
	minX, minY = maxInt(minX, 0), maxInt(minY, clipY0)
	maxX, maxY = minInt(maxX, width-1), minInt(maxY, clipY1-1)

	orient := func(ax, ay, bx, by, px, py int64) int64 {
		return (bx-ax)*(py-ay) - (by-ay)*(px-ax)
	}
	area := orient(xi[0], yi[0], xi[1], yi[1], xi[2], yi[2])
	if area == 0 {
		return nil
	}
	flip := int64(1)
	if area < 0 {
		flip = -1
	}
	depth := uint32(t.z[0]*64) + 1 // >= 1; 0 means "empty"
	var out []pixel
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px := int64(x)*sub + sub/2
			py := int64(y)*sub + sub/2
			w0 := orient(xi[1], yi[1], xi[2], yi[2], px, py) * flip
			w1 := orient(xi[2], yi[2], xi[0], yi[0], px, py) * flip
			w2 := orient(xi[0], yi[0], xi[1], yi[1], px, py) * flip
			if w0 >= 0 && w1 >= 0 && w2 >= 0 {
				out = append(out, pixel{x: x, y: y, depth: depth})
			}
		}
	}
	return out
}

func min3(a, b, c int64) int64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c int64) int64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// bandRows returns the clip rows of band b.
func (w *PlyTrace) bandRows(b int) (y0, y1 int) {
	y0 = b * w.H / w.Bands
	y1 = (b + 1) * w.H / w.Bands
	if b == w.Bands-1 {
		y1 = w.H
	}
	return y0, y1
}

// Start implements Workload.
func (w *PlyTrace) Start(rt *cthreads.Runtime, nworkers int) func() error {
	w.task = rt.Task()
	scene := w.scene()

	// Shared regions: scene vertices (read-only after init, replicated),
	// z-buffer and image (written by band owners); per-worker stack pages
	// for the rasterizer's interpolation temporaries.
	w.verts = rt.Alloc("scene", uint32(len(scene)*10*8))
	w.zbuf = rt.Alloc("zbuf", uint32(w.W*w.H*4))
	w.image = rt.Alloc("image", uint32(w.W*w.H*4))
	stacks := make([]uint32, nworkers)
	for i := range stacks {
		stacks[i] = rt.Alloc(fmt.Sprintf("stack%d", i), 4096)
	}

	// The queue of lists of polygons: one list per band.
	lists := make([][]int, w.Bands)
	for i := range scene {
		lists[i%w.Bands] = append(lists[i%w.Bands], i)
	}
	pile := rt.NewWorkPile(uint32(w.Bands))

	rt.StartMain(func(mc *vm.Context) {
		// Main stores the scene description into shared memory.
		for i, t := range scene {
			base := w.verts + uint32(i*10*8)
			for v := 0; v < 3; v++ {
				mc.StoreF64(base+uint32(v*24), t.x[v])
				mc.StoreF64(base+uint32(v*24+8), t.y[v])
				mc.StoreF64(base+uint32(v*24+16), t.z[v])
			}
			mc.Store32(base+9*8, t.color)
		}
		workers := rt.ForkWorkers(mc, nworkers, func(id int, c *vm.Context) {
			stack := stacks[id]
			for {
				li, ok := pile.Next(c)
				if !ok {
					return
				}
				y0, y1 := w.bandRows(int(li))
				for _, pi := range lists[li] {
					base := w.verts + uint32(pi*10*8)
					var t tri
					for v := 0; v < 3; v++ {
						t.x[v] = c.LoadF64(base + uint32(v*24))
						t.y[v] = c.LoadF64(base + uint32(v*24+8))
						t.z[v] = c.LoadF64(base + uint32(v*24+16))
						// Viewing transform: 3x3 matrix + perspective.
						c.FMul(9)
						c.FAdd(6)
						c.FDiv(1)
					}
					t.color = c.Load32(base + 9*8)
					for _, px := range rasterize(t, w.W, y0, y1) {
						off := uint32((px.y*w.W + px.x) * 4)
						c.FAdd(2) // z interpolation
						// The interpolated depth and the shade live in the
						// stack frame; the colour table entry is in the
						// replicated scene page.
						c.Store32(stack, px.depth)
						c.Load32(stack)
						c.Load32(base + 9*8)
						c.Compute(2)
						old := c.Load32(w.zbuf + off)
						if old == 0 || px.depth < old {
							c.Store32(w.zbuf+off, px.depth)
							c.Store32(w.image+off, t.color)
						}
					}
				}
			}
		})
		for _, wk := range workers {
			wk.Join(mc)
		}
	})
	return func() error { return w.verify(scene) }
}

func (w *PlyTrace) verify(scene []tri) error {
	zref := make([]uint32, w.W*w.H)
	cref := make([]uint32, w.W*w.H)
	for i, t := range scene {
		y0, y1 := w.bandRows(i % w.Bands)
		for _, px := range rasterize(t, w.W, y0, y1) {
			k := px.y*w.W + px.x
			if zref[k] == 0 || px.depth < zref[k] {
				zref[k] = px.depth
				cref[k] = t.color
			}
		}
	}
	covered := 0
	for k := 0; k < w.W*w.H; k++ {
		off := uint32(k * 4)
		gz := readWord(w.task, w.zbuf+off)
		if gz != zref[k] {
			return fmt.Errorf("PlyTrace: zbuf[%d] = %d, want %d", k, gz, zref[k])
		}
		if zref[k] != 0 {
			covered++
			if gc := readWord(w.task, w.image+off); gc != cref[k] {
				return fmt.Errorf("PlyTrace: image[%d] = %#x, want %#x", k, gc, cref[k])
			}
		}
	}
	if covered == 0 {
		return fmt.Errorf("PlyTrace: rendered nothing")
	}
	return nil
}
