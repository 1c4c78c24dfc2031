package dist

import (
	"fmt"
	"math"
	"math/rand"

	"probdb/internal/numeric"
	"probdb/internal/region"
)

// FloorHalfSpace floors d to the half-space h (x[h.L] h.Op x[h.R]), the
// region a cross atom such as l.x < r.x keeps. It is the structured
// counterpart of FloorWhere for the one non-rectangular predicate shape
// selections produce, and it is exact:
//
//   - When dims h.L and h.R are jointly Gaussian and unfloored — two
//     Gaussian factors of a Product, or two dims of a MultiGaussian — the
//     result stays symbolic, the paper's "[Gaus₂, Floor{x<y}]" (a
//     HalfFloored), with the closed-form mass of x_R − x_L ~ N(d, s²).
//   - Everything else collapses to its generic form and is floored there:
//     discrete points pointwise, grid cells by their exact volume fraction
//     inside h (no sub-sampling).
func FloorHalfSpace(d Dist, h region.HalfSpace) Dist {
	checkDim(h.L, d.Dim())
	checkDim(h.R, d.Dim())
	if hf, ok := d.(HalfFloored); ok && (hf.h == h || hf.h == (region.HalfSpace{L: h.R, R: h.L, Op: h.Op.Flip()})) {
		return hf // floors are idempotent: the same region again changes nothing
	}
	if hf, ok := newHalfFloored(d, h); ok {
		return hf
	}
	switch v := Collapse(d, DefaultOptions).(type) {
	case *Discrete:
		return v.FloorWhere(h.Contains)
	case *Grid:
		return v.floorHalfSpace(h)
	default:
		panic(fmt.Sprintf("dist: Collapse returned %T", v)) // unreachable
	}
}

// HalfFloored is a symbolic half-space floor: a joint whose dims L and R
// are unfloored jointly Gaussian, zeroed where x[L] op x[R] fails, without
// flattening to a grid. Its mass is closed-form: with D = x_R − x_L ~
// N(µ_R − µ_L, Σ_LL + Σ_RR − 2Σ_LR), Pr(x_L < x_R) = Pr(D > 0) = Φ(d/s),
// scaled by the mass of every other factor. Mass, At, Dim and DimKind are
// answered directly; every other operation goes through Collapse, which
// clips the collapsed base exactly (the pattern Floored follows for 1-D
// floors).
type HalfFloored struct {
	base Dist
	h    region.HalfSpace
	mass float64
}

var _ Dist = HalfFloored{}

// newHalfFloored builds the symbolic floor of d to h when dims h.L and h.R
// of d are unfloored jointly Gaussian; ok is false otherwise.
func newHalfFloored(d Dist, h region.HalfSpace) (hf HalfFloored, ok bool) {
	mu, cov, other, ok := gaussianPair(d, h.L, h.R)
	if !ok {
		return HalfFloored{}, false
	}
	s := math.Sqrt(math.Max(cov[0]+cov[1]-2*cov[2], 0))
	p := halfSpaceProb(h.Op, mu[1]-mu[0], s)
	return HalfFloored{base: d, h: h, mass: numeric.Clamp01(other * p)}, true
}

// gaussianPair returns the means (µ_l, µ_r), the covariance entries
// (Σ_ll, Σ_rr, Σ_lr) and the mass of everything else when dims l and r of d
// are unfloored jointly Gaussian: two dims of a MultiGaussian, or Gaussian
// factors (1-D or multivariate) of a Product. Independent factors have zero
// covariance.
func gaussianPair(d Dist, l, r int) (mu [2]float64, cov [3]float64, other float64, ok bool) {
	switch v := d.(type) {
	case *MultiGaussian:
		return [2]float64{v.mean[l], v.mean[r]},
			[3]float64{v.cov[l][l], v.cov[r][r], v.cov[l][r]}, 1, true
	case *Product:
		fl, ll := v.factorOf(l)
		fr, lr := v.factorOf(r)
		if !isGaussianFactor(v.factors[fl]) || !isGaussianFactor(v.factors[fr]) {
			return mu, cov, 0, false
		}
		gl, gr := v.factors[fl], v.factors[fr]
		mu = [2]float64{gl.Mean(ll), gr.Mean(lr)}
		cov = [3]float64{gl.Variance(ll), gr.Variance(lr), 0}
		if fl == fr {
			if mg, isMVN := gl.(*MultiGaussian); isMVN {
				cov[2] = mg.cov[ll][lr]
			} else {
				cov[2] = cov[0] // a 1-D factor compared with itself
			}
		}
		other = v.scale
		for i, f := range v.factors {
			if i != fl && i != fr {
				other *= f.Mass()
			}
		}
		return mu, cov, other, true
	}
	return mu, cov, 0, false
}

// isGaussianFactor reports whether f is an unfloored (mass 1) Gaussian.
func isGaussianFactor(f Dist) bool {
	switch v := f.(type) {
	case symCont:
		_, ok := v.m.(Gaussian)
		return ok
	case *MultiGaussian:
		return true
	}
	return false
}

// halfSpaceProb returns Pr(x_L op x_R) for D = x_R − x_L ~ N(d, s²). The
// tails use Φ directly on each side, so tiny but positive probabilities
// keep their precision. s = 0 (a dim compared with itself) is the point
// mass at d.
func halfSpaceProb(op region.Op, d, s float64) float64 {
	if s == 0 {
		if op.Eval(0, d) {
			return 1
		}
		return 0
	}
	switch op {
	case region.LT, region.LE: // D > 0
		return numeric.NormalCDF(d/s, 0, 1)
	case region.GT, region.GE: // D < 0
		return numeric.NormalCDF(-d/s, 0, 1)
	case region.EQ:
		return 0
	case region.NE:
		return 1
	}
	panic("dist: unknown Op")
}

func (f HalfFloored) Dim() int           { return f.base.Dim() }
func (f HalfFloored) DimKind(i int) Kind { return f.base.DimKind(i) }
func (f HalfFloored) Mass() float64      { return f.mass }

func (f HalfFloored) At(x []float64) float64 {
	if len(x) != f.base.Dim() {
		panic("dist: At dimensionality mismatch")
	}
	if !f.h.Contains(x) {
		return 0
	}
	return f.base.At(x)
}

func (f HalfFloored) MassIn(b region.Box) float64 {
	return Collapse(f, DefaultOptions).MassIn(b)
}

func (f HalfFloored) MassWhere(pred func([]float64) bool) float64 {
	return Collapse(f, DefaultOptions).MassWhere(pred)
}

func (f HalfFloored) Marginal(keep []int) Dist {
	checkKeep(keep, f.Dim())
	if identityKeep(keep, f.Dim()) {
		return f
	}
	return Collapse(f, DefaultOptions).Marginal(keep)
}

func (f HalfFloored) Floor(dim int, keep region.Set) Dist {
	return Collapse(f, DefaultOptions).Floor(dim, keep)
}

func (f HalfFloored) FloorWhere(pred func([]float64) bool) Dist {
	return Collapse(f, DefaultOptions).FloorWhere(pred)
}

func (f HalfFloored) Support() region.Box { return Collapse(f, DefaultOptions).Support() }

func (f HalfFloored) Mean(dim int) float64 { return Collapse(f, DefaultOptions).Mean(dim) }

func (f HalfFloored) Variance(dim int) float64 { return Collapse(f, DefaultOptions).Variance(dim) }

func (f HalfFloored) Sample(r *rand.Rand) []float64 {
	return Collapse(f, DefaultOptions).Sample(r)
}

func (f HalfFloored) String() string {
	out := f.h
	out.Op = out.Op.Negate()
	return fmt.Sprintf("[%s, Floor{%s}]", f.base.String(), out)
}

// collapseHalfFloored clips the collapsed base exactly to the half-space and
// rescales the cells to the closed-form mass, so marginals of the generic
// form keep the symbolic existence probability. When the half-space misses
// the base's truncated support entirely the clipped grid is empty and is
// returned as is.
func collapseHalfFloored(f HalfFloored, opts Options) *Grid {
	g := asGrid(Collapse(f.base, opts)).floorHalfSpace(f.h)
	if g.mass <= 0 || g.mass == f.mass {
		return g
	}
	w := make([]float64, len(g.w))
	k := f.mass / g.mass
	for i, v := range g.w {
		w[i] = v * k
	}
	return NewGrid(g.axes, w)
}
