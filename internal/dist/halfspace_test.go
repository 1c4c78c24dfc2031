package dist

import (
	"math"
	"strings"
	"testing"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// allOps pairs every comparison operator with the kept mass of a
// continuous joint given P[x_L < x_R]: the diagonal has zero mass, so LE
// equals LT, GT and GE are the complement, EQ keeps nothing and NE all.
func allOps(lt float64) []struct {
	op   region.Op
	want float64
} {
	return []struct {
		op   region.Op
		want float64
	}{
		{region.LT, lt}, {region.LE, lt},
		{region.GT, 1 - lt}, {region.GE, 1 - lt},
		{region.EQ, 0}, {region.NE, 1},
	}
}

func TestFloorHalfSpaceGaussianClosedForm(t *testing.T) {
	// x_L < x_R for jointly Gaussian dims has mass P[D > 0] with
	// D = x_R − x_L ~ N(µ_R − µ_L, Σ_LL + Σ_RR − 2Σ_LR), scaled by every
	// other factor's mass and the product's own scale.
	other := NewGaussian(3, 1).Floor(0, region.Compare(region.LT, 2.5))
	prod := newProduct([]Dist{NewGaussian(0, 1), other, NewGaussian(2, 3)}, 0.8)
	mvn := MustMultiGaussian([]float64{1, -1, 4}, [][]float64{
		{2, 0.3, 0.9},
		{0.3, 1, 0.2},
		{0.9, 0.2, 3},
	})
	cases := []struct {
		name  string
		d     Dist
		h     region.HalfSpace
		diff  float64 // µ_R − µ_L
		sd    float64 // √(Σ_LL + Σ_RR − 2Σ_LR)
		scale float64
	}{
		{"product", prod, region.HalfSpace{L: 0, R: 2}, 2, math.Sqrt(1 + 9), 0.8 * other.Mass()},
		{"product reversed", prod, region.HalfSpace{L: 2, R: 0}, -2, math.Sqrt(1 + 9), 0.8 * other.Mass()},
		{"mvn", mvn, region.HalfSpace{L: 2, R: 0}, -3, math.Sqrt(3 + 2 - 2*0.9), 1},
		{"mvn factor", ProductOf(NewUniform(0, 1), mvn), region.HalfSpace{L: 1, R: 2}, -2, math.Sqrt(2 + 1 - 2*0.3), 1},
		{"far tail", ProductOf(NewGaussian(60, 1), NewGaussian(10, 2)), region.HalfSpace{L: 0, R: 1}, -50, math.Sqrt(5), 1},
	}
	for _, c := range cases {
		lt := 1 - numeric.NormalCDF(0, c.diff, c.sd)
		if c.diff < 0 {
			lt = numeric.NormalCDF(0, -c.diff, c.sd) // keep the far tail's precision
		}
		for _, o := range allOps(lt) {
			h := c.h
			h.Op = o.op
			f := FloorHalfSpace(c.d, h)
			hf, ok := f.(HalfFloored)
			if !ok {
				t.Fatalf("%s %v: got %T, want a symbolic HalfFloored", c.name, h, f)
			}
			want := c.scale * o.want
			if got := hf.Mass(); !almostEqual(got, want, 1e-12) {
				t.Errorf("%s %v: mass %v, want %v", c.name, h, got, want)
			}
		}
	}
	// The far-tail pair keeps its tiny but positive mass: existence drops
	// only at zero.
	far := FloorHalfSpace(cases[4].d, region.HalfSpace{L: 0, R: 1, Op: region.LT})
	if m := far.Mass(); !(m > 0 && m < 1e-100) {
		t.Errorf("far-tail mass = %v, want tiny but positive", m)
	}
}

func TestHalfFlooredDensityAndRendering(t *testing.T) {
	base := ProductOf(NewGaussian(0, 1), NewGaussian(1, 1))
	f := FloorHalfSpace(base, region.HalfSpace{L: 0, R: 1, Op: region.LT})
	if got := f.At([]float64{2, 1}); got != 0 {
		t.Errorf("density outside the half-space = %v, want 0", got)
	}
	if got, want := f.At([]float64{0, 1}), base.At([]float64{0, 1}); got != want {
		t.Errorf("density inside = %v, want base %v", got, want)
	}
	if got := f.String(); got != "[Gaus(0,1) ⊗ Gaus(1,1), Floor{x0 >= x1}]" {
		t.Errorf("String = %q", got)
	}
	// Flooring to the same region again, written either way round, is a
	// no-op rather than a second clip of the collapsed form.
	for _, again := range []region.HalfSpace{{L: 0, R: 1, Op: region.LT}, {L: 1, R: 0, Op: region.GT}} {
		if g := FloorHalfSpace(f, again); g != f {
			t.Errorf("re-flooring to %v gave %v", again, g)
		}
	}
	// Generic operations collapse with the closed-form mass preserved.
	if got := f.Marginal([]int{1}).Mass(); !almostEqual(got, f.Mass(), 1e-12) {
		t.Errorf("marginal mass = %v, want %v", got, f.Mass())
	}
	// The conditional mean of y given x < y lies above the prior mean.
	if m := f.Mean(1); !(m > 1) {
		t.Errorf("E[y | x<y] = %v, want > 1", m)
	}
}

func TestFloorHalfSpaceNonGaussianStaysExact(t *testing.T) {
	// A floored Gaussian factor leaves the closed form; the grid path clips
	// cells exactly, and two uniforms collapse to uniform cells, so
	// P[x < y] over U(0,1)² is exactly one half.
	u := ProductOf(NewUniform(0, 1), NewUniform(0, 1))
	for _, o := range allOps(0.5) {
		f := FloorHalfSpace(u, region.HalfSpace{L: 0, R: 1, Op: o.op})
		if _, ok := f.(*Grid); !ok {
			t.Fatalf("%v: got %T, want *Grid", o.op, f)
		}
		if got := f.Mass(); !almostEqual(got, o.want, 1e-12) {
			t.Errorf("U(0,1)² x %v y: mass %v, want %v", o.op, got, o.want)
		}
	}
	floored := ProductOf(NewGaussian(0, 1).Floor(0, region.Compare(region.GT, 0)), NewGaussian(1, 1))
	if _, ok := FloorHalfSpace(floored, region.HalfSpace{L: 0, R: 1, Op: region.LT}).(*Grid); !ok {
		t.Error("a floored factor should take the grid path")
	}
}

func TestGridFloorHalfSpaceOffDiagonal(t *testing.T) {
	// Uniform mass on [0,1]×[0.3,2.1] over 7×5 cells whose corners miss
	// the line y = x: the area where y ≤ x is the triangle under it,
	// ∫_{0.3}^{1} (1−y) dy = 0.245, so P[x < y] = 1 − 0.245/1.8 exactly.
	axes := []Axis{
		{Kind: KindContinuous, Edges: equalEdges(0, 1, 7)},
		{Kind: KindContinuous, Edges: equalEdges(0.3, 2.1, 5)},
	}
	w := make([]float64, 35)
	for i := range w {
		w[i] = 1.0 / 35
	}
	g := NewGrid(axes, w)
	lt := 1 - 0.245/1.8
	for _, o := range allOps(lt) {
		if got := g.floorHalfSpace(region.HalfSpace{L: 0, R: 1, Op: o.op}).Mass(); !almostEqual(got, o.want, 1e-12) {
			t.Errorf("x %v y: mass %v, want %v", o.op, got, o.want)
		}
		// Swapping the dims mirrors the region: y op x.
		want := o.want
		if o.op != region.EQ && o.op != region.NE {
			want = 1 - o.want
		}
		if got := g.floorHalfSpace(region.HalfSpace{L: 1, R: 0, Op: o.op}).Mass(); !almostEqual(got, want, 1e-12) {
			t.Errorf("y %v x: mass %v, want %v", o.op, got, want)
		}
	}
	// A line through the interior of a single cell: [0,1]×[0,1] as one
	// cell, y = x + 0.25 via a shifted axis [0.25, 1.25]: the area where
	// x < y is 1 − (0.75²/2).
	one := NewGrid([]Axis{
		{Kind: KindContinuous, Edges: []float64{0, 1}},
		{Kind: KindContinuous, Edges: []float64{0.25, 1.25}},
	}, []float64{1})
	if got, want := one.floorHalfSpace(region.HalfSpace{L: 0, R: 1, Op: region.LT}).Mass(), 1-0.75*0.75/2; !almostEqual(got, want, 1e-12) {
		t.Errorf("single shifted cell: mass %v, want %v", got, want)
	}
}

func TestGridFloorHalfSpaceMixedAxes(t *testing.T) {
	// x continuous uniform on [0,1] in 4 cells, y discrete on {0.25, 0.6, 2}
	// with equal mass: P[x < y] = (0.25 + 0.6 + 1)/3, the exact interval
	// clip of each cell; P[x = y] = 0. Two discrete axes compare pointwise.
	mixed := NewGrid([]Axis{
		{Kind: KindContinuous, Edges: equalEdges(0, 1, 4)},
		{Kind: KindDiscrete, Values: []float64{0.25, 0.6, 2}},
	}, uniformWeights(12))
	lt := (0.25 + 0.6 + 1) / 3
	for _, o := range allOps(lt) {
		if got := mixed.floorHalfSpace(region.HalfSpace{L: 0, R: 1, Op: o.op}).Mass(); !almostEqual(got, o.want, 1e-12) {
			t.Errorf("continuous x %v discrete y: mass %v, want %v", o.op, got, o.want)
		}
		// The discrete axis on the left: y op x.
		want := o.want
		if o.op != region.EQ && o.op != region.NE {
			want = 1 - o.want
		}
		if got := mixed.floorHalfSpace(region.HalfSpace{L: 1, R: 0, Op: o.op}).Mass(); !almostEqual(got, want, 1e-12) {
			t.Errorf("discrete y %v continuous x: mass %v, want %v", o.op, got, want)
		}
	}
	disc := NewGrid([]Axis{
		{Kind: KindDiscrete, Values: []float64{1, 2}},
		{Kind: KindDiscrete, Values: []float64{1, 3}},
	}, uniformWeights(4))
	for _, c := range []struct {
		op   region.Op
		want float64
	}{{region.LT, 0.5}, {region.LE, 0.75}, {region.EQ, 0.25}, {region.NE, 0.75}, {region.GT, 0.25}, {region.GE, 0.5}} {
		if got := disc.floorHalfSpace(region.HalfSpace{L: 0, R: 1, Op: c.op}).Mass(); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("discrete x %v y: mass %v, want %v", c.op, got, c.want)
		}
	}
}

func TestFloorHalfSpaceDiscreteMatchesPointwise(t *testing.T) {
	// Discrete inputs floor pointwise, exactly as the closure path does.
	d := ProductOf(NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5}), NewPoisson(2))
	h := region.HalfSpace{L: 0, R: 1, Op: region.LE}
	got := Encode(FloorHalfSpace(d, h))
	want := Encode(d.FloorWhere(h.Contains))
	if string(got) != string(want) {
		t.Error("discrete half-space floor differs from the pointwise floor")
	}
	// A dim compared with itself is decided pointwise too.
	self := FloorHalfSpace(NewGaussian(0, 1), region.HalfSpace{Op: region.LT})
	if self.Mass() != 0 {
		t.Errorf("x < x kept mass %v", self.Mass())
	}
	if !strings.Contains(FloorHalfSpace(ProductOf(NewGaussian(0, 1), NewGaussian(0, 1)), region.HalfSpace{L: 1, R: 1, Op: region.LE}).String(), "Floor{x1 > x1}") {
		t.Error("x1 <= x1 should render its symbolic floor")
	}
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}
