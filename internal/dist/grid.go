package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// Axis describes one dimension of a Grid: either a continuous bucketing
// (Edges, one more entry than cells, strictly increasing — the paper's
// histogram buckets) or an explicit list of discrete point values (Values,
// strictly increasing).
type Axis struct {
	Kind   Kind
	Edges  []float64 // Continuous axes: cell i spans [Edges[i], Edges[i+1])
	Values []float64 // Discrete axes: cell i is the point Values[i]
}

// Cells returns the number of cells along the axis.
func (a Axis) Cells() int {
	if a.Kind == KindContinuous {
		return len(a.Edges) - 1
	}
	return len(a.Values)
}

// locate returns the cell index containing x, or -1 when x is outside the
// axis. The last continuous cell is closed on both sides.
func (a Axis) locate(x float64) int {
	if a.Kind == KindContinuous {
		if x < a.Edges[0] || x > a.Edges[len(a.Edges)-1] {
			return -1
		}
		i := sort.SearchFloat64s(a.Edges, x) // first edge >= x
		if i < len(a.Edges) && a.Edges[i] == x {
			if i == len(a.Edges)-1 {
				return i - 1 // top edge belongs to the last cell
			}
			return i
		}
		return i - 1
	}
	i := sort.SearchFloat64s(a.Values, x)
	if i < len(a.Values) && a.Values[i] == x {
		return i
	}
	return -1
}

// width returns the width of cell i (0 for discrete axes).
func (a Axis) width(i int) float64 {
	if a.Kind == KindContinuous {
		return a.Edges[i+1] - a.Edges[i]
	}
	return 0
}

// center returns the representative coordinate of cell i.
func (a Axis) center(i int) float64 {
	if a.Kind == KindContinuous {
		return (a.Edges[i] + a.Edges[i+1]) / 2
	}
	return a.Values[i]
}

func (a Axis) validate() error {
	switch a.Kind {
	case KindContinuous:
		if len(a.Edges) < 2 {
			return fmt.Errorf("continuous axis needs at least 2 edges")
		}
		for i := 1; i < len(a.Edges); i++ {
			if !(a.Edges[i] > a.Edges[i-1]) {
				return fmt.Errorf("axis edges not strictly increasing at %d", i)
			}
		}
		if math.IsInf(a.Edges[0], 0) || math.IsInf(a.Edges[len(a.Edges)-1], 0) {
			return fmt.Errorf("axis edges must be finite")
		}
	case KindDiscrete:
		if len(a.Values) == 0 {
			return fmt.Errorf("discrete axis needs at least one value")
		}
		for i, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("axis value must be finite")
			}
			if i > 0 && !(v > a.Values[i-1]) {
				return fmt.Errorf("axis values not strictly increasing at %d", i)
			}
		}
	default:
		return fmt.Errorf("axis kind must be Continuous or Discrete")
	}
	return nil
}

// Grid is a k-dimensional, kind-aware histogram storing probability mass per
// cell. It is the generic representation every other distribution collapses
// to when an operation leaves its closed-form family: the paper's Histogram
// for continuous data, and the exact product space for mixed
// discrete×continuous joints. Weights are mass (not density); At converts to
// density across the continuous dimensions of a cell.
type Grid struct {
	axes []Axis
	w    []float64 // row-major cell masses
	cum  []float64 // cumulative masses for sampling
	mass float64
}

var _ Dist = (*Grid)(nil)

// NewGrid builds a grid over the given axes with the given per-cell masses
// in row-major order (last axis fastest). It panics on malformed axes,
// negative weights, weight-count mismatch, or total mass beyond 1.
func NewGrid(axes []Axis, weights []float64) *Grid {
	if len(axes) == 0 {
		panic("dist: NewGrid requires at least one axis")
	}
	n := 1
	for _, a := range axes {
		if err := a.validate(); err != nil {
			panic("dist: " + err.Error())
		}
		n *= a.Cells()
	}
	if len(weights) != n {
		panic(fmt.Sprintf("dist: NewGrid expects %d weights, got %d", n, len(weights)))
	}
	w := make([]float64, n)
	cum := make([]float64, n)
	var mass numeric.KahanSum
	for i, v := range weights {
		if v < 0 {
			if v > -1e-12 { // tolerate tiny negative float drift
				v = 0
			} else {
				panic("dist: negative grid weight")
			}
		}
		w[i] = v
		mass.Add(v)
		cum[i] = mass.Value()
	}
	total := mass.Value()
	if total > 1+1e-9 {
		panic(fmt.Sprintf("dist: grid mass %v exceeds 1", total))
	}
	ax := make([]Axis, len(axes))
	copy(ax, axes)
	return &Grid{axes: ax, w: w, cum: cum, mass: numeric.Clamp01(total)}
}

// NewHistogram builds the paper's 1-D histogram representation: bucket
// boundaries in edges and probability mass per bucket.
func NewHistogram(edges, masses []float64) *Grid {
	return NewGrid([]Axis{{Kind: KindContinuous, Edges: edges}}, masses)
}

// NewHistogramDensity builds a 1-D histogram from per-bucket densities
// (mass = density × width), the form in which the paper stores Hist pdfs.
func NewHistogramDensity(edges, densities []float64) *Grid {
	if len(densities) != len(edges)-1 {
		panic("dist: NewHistogramDensity expects len(edges)-1 densities")
	}
	masses := make([]float64, len(densities))
	for i, d := range densities {
		masses[i] = d * (edges[i+1] - edges[i])
	}
	return NewHistogram(edges, masses)
}

// Axes returns the grid's axes. The returned slice must not be modified.
func (g *Grid) Axes() []Axis { return g.axes }

// Weights returns the per-cell masses in row-major order. The returned
// slice must not be modified.
func (g *Grid) Weights() []float64 { return g.w }

func (g *Grid) Dim() int { return len(g.axes) }

func (g *Grid) DimKind(i int) Kind {
	checkDim(i, len(g.axes))
	return g.axes[i].Kind
}

func (g *Grid) Mass() float64 { return g.mass }

// eachCell invokes fn for every cell with its flat index and per-axis
// indices. idx is reused between calls.
func (g *Grid) eachCell(fn func(flat int, idx []int)) {
	idx := make([]int, len(g.axes))
	for flat := range g.w {
		fn(flat, idx)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < g.axes[d].Cells() {
				break
			}
			idx[d] = 0
		}
	}
}

func (g *Grid) At(x []float64) float64 {
	if len(x) != len(g.axes) {
		panic("dist: At dimensionality mismatch")
	}
	flat := 0
	vol := 1.0
	for d, a := range g.axes {
		i := a.locate(x[d])
		if i < 0 {
			return 0
		}
		flat = flat*a.Cells() + i
		if a.Kind == KindContinuous {
			vol *= a.width(i)
		}
	}
	return g.w[flat] / vol
}

func (g *Grid) MassIn(b region.Box) float64 {
	if len(b) != len(g.axes) {
		panic("dist: MassIn box dimensionality mismatch")
	}
	// Per-axis inclusion fraction of every cell.
	fr := make([][]float64, len(g.axes))
	for d, a := range g.axes {
		fr[d] = make([]float64, a.Cells())
		for i := range fr[d] {
			fr[d][i] = cellFraction(a, i, b[d])
		}
	}
	var s numeric.KahanSum
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		f := g.w[flat]
		for d := range idx {
			f *= fr[d][idx[d]]
			if f == 0 {
				return
			}
		}
		s.Add(f)
	})
	return numeric.Clamp01(s.Value())
}

// cellFraction returns the fraction of cell i of axis a lying inside iv
// (mass is uniform within a continuous cell, so length fraction = mass
// fraction).
func cellFraction(a Axis, i int, iv region.Interval) float64 {
	if a.Kind == KindDiscrete {
		if iv.Contains(a.Values[i]) {
			return 1
		}
		return 0
	}
	lo, hi := a.Edges[i], a.Edges[i+1]
	clipLo, clipHi := math.Max(lo, iv.Lo), math.Min(hi, iv.Hi)
	if clipHi <= clipLo {
		return 0
	}
	return (clipHi - clipLo) / (hi - lo)
}

func (g *Grid) MassWhere(pred func([]float64) bool) float64 {
	var s numeric.KahanSum
	sc := g.newCellScratch()
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		s.Add(g.w[flat] * g.cellSatisfiedFraction(idx, sc, pred))
	})
	return numeric.Clamp01(s.Value())
}

// cellScratch is the per-call working space of cellSatisfiedFraction,
// allocated once per MassWhere/FloorWhere rather than once per cell.
type cellScratch struct {
	x        []float64 // the probe point
	contDims []int     // the continuous axes, in order
	sub      []int     // subsample odometer; all zeros between calls (it wraps)
}

func (g *Grid) newCellScratch() cellScratch {
	sc := cellScratch{x: make([]float64, len(g.axes))}
	for d, a := range g.axes {
		if a.Kind == KindContinuous {
			sc.contDims = append(sc.contDims, d)
		}
	}
	sc.sub = make([]int, len(sc.contDims))
	return sc
}

// cellSatisfiedFraction estimates the fraction of a cell's mass where pred
// holds: exact for all-discrete cells, a CellSamples^k midpoint subsample
// across the continuous dimensions otherwise. This is the path for opaque
// predicates only; comparison floors clip cells exactly (floorHalfSpace).
func (g *Grid) cellSatisfiedFraction(idx []int, sc cellScratch, pred func([]float64) bool) float64 {
	x, contDims, sub := sc.x, sc.contDims, sc.sub
	for d, a := range g.axes {
		if a.Kind == KindDiscrete {
			x[d] = a.Values[idx[d]]
		}
	}
	if len(contDims) == 0 {
		if pred(x) {
			return 1
		}
		return 0
	}
	n := DefaultOptions.CellSamples
	total := 1
	for range contDims {
		total *= n
	}
	hit := 0
	for c := 0; c < total; c++ {
		for j, d := range contDims {
			a := g.axes[d]
			lo := a.Edges[idx[d]]
			w := a.width(idx[d])
			x[d] = lo + (float64(sub[j])+0.5)/float64(n)*w
		}
		if pred(x) {
			hit++
		}
		for j := len(sub) - 1; j >= 0; j-- {
			sub[j]++
			if sub[j] < n {
				break
			}
			sub[j] = 0
		}
	}
	return float64(hit) / float64(total)
}

func (g *Grid) Marginal(keep []int) Dist {
	checkKeep(keep, len(g.axes))
	if identityKeep(keep, len(g.axes)) {
		return g
	}
	axes := make([]Axis, len(keep))
	for j, k := range keep {
		axes[j] = g.axes[k]
	}
	n := 1
	for _, a := range axes {
		n *= a.Cells()
	}
	w := make([]float64, n)
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		out := 0
		for _, k := range keep {
			out = out*g.axes[k].Cells() + idx[k]
		}
		w[out] += g.w[flat]
	})
	return NewGrid(axes, w)
}

// Floor applies a rectangular floor along one dimension. Continuous axes
// are refined at the region boundaries first, so the result is exact (each
// refined cell lies entirely inside or outside keep).
func (g *Grid) Floor(dim int, keep region.Set) Dist {
	checkDim(dim, len(g.axes))
	ref := g
	if g.axes[dim].Kind == KindContinuous {
		cuts := boundaryPoints(keep, g.axes[dim].Edges[0], g.axes[dim].Edges[len(g.axes[dim].Edges)-1])
		ref = g.refineAxis(dim, cuts)
	}
	a := ref.axes[dim]
	zero := make([]bool, a.Cells())
	for i := range zero {
		if a.Kind == KindDiscrete {
			zero[i] = !keep.Contains(a.Values[i])
		} else {
			// Test the midpoint: after refinement no region boundary lies
			// strictly inside the cell.
			zero[i] = !keep.Contains(a.center(i))
		}
	}
	w := make([]float64, len(ref.w))
	copy(w, ref.w)
	ref.eachCell(func(flat int, idx []int) {
		if zero[idx[dim]] {
			w[flat] = 0
		}
	})
	return NewGrid(ref.axes, w)
}

// boundaryPoints collects the finite region endpoints inside (lo, hi).
func boundaryPoints(s region.Set, lo, hi float64) []float64 {
	var pts []float64
	for _, iv := range s.Intervals() {
		for _, v := range [2]float64{iv.Lo, iv.Hi} {
			if v > lo && v < hi && !math.IsInf(v, 0) {
				pts = append(pts, v)
			}
		}
	}
	sort.Float64s(pts)
	return pts
}

// refineAxis splits the cells of a continuous axis at the given cut points,
// distributing mass proportionally to sub-width.
func (g *Grid) refineAxis(dim int, cuts []float64) *Grid {
	if len(cuts) == 0 {
		return g
	}
	old := g.axes[dim]
	edges := make([]float64, 0, len(old.Edges)+len(cuts))
	edges = append(edges, old.Edges...)
	edges = append(edges, cuts...)
	sort.Float64s(edges)
	// Dedupe.
	uniq := edges[:1]
	for _, e := range edges[1:] {
		if e != uniq[len(uniq)-1] {
			uniq = append(uniq, e)
		}
	}
	newAxis := Axis{Kind: KindContinuous, Edges: uniq}
	// Map new cells to old cells and width fractions.
	oldIdx := make([]int, newAxis.Cells())
	frac := make([]float64, newAxis.Cells())
	for i := 0; i < newAxis.Cells(); i++ {
		mid := newAxis.center(i)
		oi := old.locate(mid)
		oldIdx[i] = oi
		frac[i] = newAxis.width(i) / old.width(oi)
	}
	axes := make([]Axis, len(g.axes))
	copy(axes, g.axes)
	axes[dim] = newAxis
	n := 1
	for _, a := range axes {
		n *= a.Cells()
	}
	w := make([]float64, n)
	strideNew := make([]int, len(axes))
	acc := 1
	for i := len(axes) - 1; i >= 0; i-- {
		strideNew[i] = acc
		acc *= axes[i].Cells()
	}
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		// Distribute this old cell's mass across the new cells along dim.
		baseFlat := 0
		for d := range idx {
			if d != dim {
				baseFlat += idx[d] * strideNew[d]
			}
		}
		for ni := 0; ni < newAxis.Cells(); ni++ {
			if oldIdx[ni] != idx[dim] {
				continue
			}
			w[baseFlat+ni*strideNew[dim]] += g.w[flat] * frac[ni]
		}
	})
	return NewGrid(axes, w)
}

// FloorWhere scales each cell's mass by the fraction of the cell satisfying
// pred (exact for all-discrete cells, subsampled otherwise). The axes are
// unchanged.
func (g *Grid) FloorWhere(pred func([]float64) bool) Dist {
	w := make([]float64, len(g.w))
	sc := g.newCellScratch()
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		w[flat] = g.w[flat] * g.cellSatisfiedFraction(idx, sc, pred)
	})
	return NewGrid(g.axes, w)
}

// floorHalfSpace zeroes the grid outside the half-space h exactly. Mass is
// uniform within a continuous cell, so each cell keeps the fraction of its
// volume inside h: the rectangle ∩ half-plane area when both compared axes
// are continuous, an interval clip (cellFraction) for a continuous axis
// against a discrete value, and a pointwise test for two discrete values.
// The fraction depends only on the two compared axes, so it is tabulated
// once per cell pair. The axes are unchanged.
func (g *Grid) floorHalfSpace(h region.HalfSpace) *Grid {
	checkDim(h.L, len(g.axes))
	checkDim(h.R, len(g.axes))
	al, ar := g.axes[h.L], g.axes[h.R]
	nr := ar.Cells()
	frac := make([]float64, al.Cells()*nr)
	for i := 0; i < al.Cells(); i++ {
		for j := 0; j < nr; j++ {
			if h.L != h.R {
				frac[i*nr+j] = halfSpaceCellFraction(al, i, ar, j, h.Op)
			} else if c := al.center(i); h.Op.Eval(c, c) {
				// x op x: one coordinate on both sides (only i == j is
				// ever looked up).
				frac[i*nr+j] = 1
			}
		}
	}
	w := make([]float64, len(g.w))
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		w[flat] = g.w[flat] * frac[idx[h.L]*nr+idx[h.R]]
	})
	return NewGrid(g.axes, w)
}

// halfSpaceCellFraction returns the exact fraction of the cell pair (cell i
// of al, cell j of ar) where x_l op x_r holds, with mass uniform across
// continuous cells.
func halfSpaceCellFraction(al Axis, i int, ar Axis, j int, op region.Op) float64 {
	switch {
	case al.Kind == KindDiscrete && ar.Kind == KindDiscrete:
		if op.Eval(al.Values[i], ar.Values[j]) {
			return 1
		}
		return 0
	case ar.Kind == KindDiscrete:
		return setFraction(al, i, region.Compare(op, ar.Values[j]))
	case al.Kind == KindDiscrete:
		// u op x_r  ⇔  x_r op' u with the operands swapped.
		return setFraction(ar, j, region.Compare(op.Flip(), al.Values[i]))
	}
	// Two continuous cells: the diagonal x_l = x_r has zero area, so LE
	// equals LT, GE is the complement, EQ keeps nothing and NE everything.
	switch op {
	case region.EQ:
		return 0
	case region.NE:
		return 1
	}
	lt := ltFraction(al.Edges[i], al.Edges[i+1], ar.Edges[j], ar.Edges[j+1])
	if op == region.LT || op == region.LE {
		return lt
	}
	return 1 - lt
}

// setFraction returns the fraction of cell i of a lying inside s.
func setFraction(a Axis, i int, s region.Set) float64 {
	var f float64
	for _, iv := range s.Intervals() {
		f += cellFraction(a, i, iv)
	}
	return math.Min(f, 1)
}

// ltFraction returns the fraction of the box [a0,a1]×[b0,b1] where x < y:
// the area left of the diagonal, integrated in closed form. For x ≤ b0
// every y in the cell qualifies; across [max(a0,b0), min(a1,b1)] the
// qualifying length b1−x falls linearly; beyond b1 nothing qualifies.
func ltFraction(a0, a1, b0, b1 float64) float64 {
	wb := b1 - b0
	var area float64
	if hi := math.Min(a1, b0); hi > a0 {
		area += (hi - a0) * wb
	}
	if lo, hi := math.Max(a0, b0), math.Min(a1, b1); hi > lo {
		area += (hi - lo) * (b1 - (lo+hi)/2)
	}
	return numeric.Clamp01(area / ((a1 - a0) * wb))
}

func (g *Grid) Support() region.Box {
	b := make(region.Box, len(g.axes))
	for d, a := range g.axes {
		if a.Kind == KindContinuous {
			b[d] = region.Closed(a.Edges[0], a.Edges[len(a.Edges)-1])
		} else {
			b[d] = region.Closed(a.Values[0], a.Values[len(a.Values)-1])
		}
	}
	return b
}

func (g *Grid) Mean(dim int) float64 {
	checkDim(dim, len(g.axes))
	if g.mass == 0 {
		return math.NaN()
	}
	a := g.axes[dim]
	var s numeric.KahanSum
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] != 0 {
			s.Add(g.w[flat] * a.center(idx[dim]))
		}
	})
	return s.Value() / g.mass
}

func (g *Grid) Variance(dim int) float64 {
	checkDim(dim, len(g.axes))
	if g.mass == 0 {
		return math.NaN()
	}
	a := g.axes[dim]
	mu := g.Mean(dim)
	var s numeric.KahanSum
	g.eachCell(func(flat int, idx []int) {
		if g.w[flat] == 0 {
			return
		}
		c := a.center(idx[dim])
		d := c - mu
		v := d * d
		if a.Kind == KindContinuous {
			wdt := a.width(idx[dim])
			v += wdt * wdt / 12 // uniform-within-cell second moment
		}
		s.Add(g.w[flat] * v)
	})
	return s.Value() / g.mass
}

func (g *Grid) Sample(r *rand.Rand) []float64 {
	if g.mass <= 0 {
		panic("dist: Sample of zero-mass Grid distribution")
	}
	u := r.Float64() * g.mass
	flat := sort.SearchFloat64s(g.cum, u)
	if flat >= len(g.w) {
		flat = len(g.w) - 1
	}
	// Decompose flat into per-axis indices.
	out := make([]float64, len(g.axes))
	for d := len(g.axes) - 1; d >= 0; d-- {
		a := g.axes[d]
		i := flat % a.Cells()
		flat /= a.Cells()
		if a.Kind == KindContinuous {
			out[d] = a.Edges[i] + r.Float64()*a.width(i)
		} else {
			out[d] = a.Values[i]
		}
	}
	return out
}

func (g *Grid) String() string {
	var b strings.Builder
	if len(g.axes) == 1 && g.axes[0].Kind == KindContinuous {
		fmt.Fprintf(&b, "Hist[%.6g,%.6g;%d bins](mass=%.4g)",
			g.axes[0].Edges[0], g.axes[0].Edges[len(g.axes[0].Edges)-1],
			g.axes[0].Cells(), g.mass)
		return b.String()
	}
	fmt.Fprintf(&b, "Grid[%d dims;", len(g.axes))
	for d, a := range g.axes {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", a.Cells())
	}
	fmt.Fprintf(&b, " cells](mass=%.4g)", g.mass)
	return b.String()
}
