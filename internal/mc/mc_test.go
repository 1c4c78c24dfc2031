package mc_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probdb/internal/core"
	"probdb/internal/dist"
	"probdb/internal/mc"
	"probdb/internal/numeric"
	"probdb/internal/pws"
	"probdb/internal/region"
)

const nWorlds = 60_000

func gaussTable(t *testing.T, reg *core.Registry, name, key, attr string, params [][3]float64) *core.Table {
	t.Helper()
	schema := core.MustSchema(
		core.Column{Name: key, Type: core.IntType},
		core.Column{Name: attr, Type: core.FloatType, Uncertain: true},
	)
	tbl, err := core.NewTable(name, schema, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		d := dist.Dist(dist.NewGaussian(p[0], p[1]))
		if p[2] > 0 { // pre-floored: a partial base pdf
			d = d.Floor(0, region.Compare(region.LT, p[2]))
		}
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{key: core.Int(int64(i))},
			PDFs:   []core.PDF{{Attrs: []string{attr}, Dist: d}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestContinuousSelectMatchesMonteCarlo(t *testing.T) {
	tbl := gaussTable(t, nil, "T", "k", "x", [][3]float64{
		{20, 2, 0}, {25, 3, 0}, {13, 1, 15}, // third is partial (floored at 15)
	})
	sel, err := tbl.Select(core.Cmp(core.Col("x"), region.LT, core.LitF(22)))
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]float64{}
	for _, tup := range sel.Tuples() {
		k, _ := sel.Value(tup, "k")
		model[k.Render()] = sel.ExistenceProb(tup)
	}
	worlds := mc.SampleWorlds(tbl, nWorlds, 1, "k")
	est := mc.Existence(worlds, func(r pws.Row) bool { return r.Vals["x"] < 22 })
	for k, p := range model {
		if math.Abs(p-est[k]) > mc.Tolerance(p, nWorlds) {
			t.Errorf("key %s: model %v vs MC %v (tol %v)", k, p, est[k], mc.Tolerance(p, nWorlds))
		}
	}
}

func TestContinuousCrossAttributeSelectMatchesMonteCarlo(t *testing.T) {
	schema := core.MustSchema(
		core.Column{Name: "k", Type: core.IntType},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "y", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("T", schema, nil, nil)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		if err := tbl.Insert(core.Row{
			Values: map[string]core.Value{"k": core.Int(int64(i))},
			PDFs: []core.PDF{
				{Attrs: []string{"x"}, Dist: dist.NewGaussian(r.Float64()*10, 1+r.Float64()*2)},
				{Attrs: []string{"y"}, Dist: dist.NewUniform(0, 10+r.Float64()*5)},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := tbl.Select(core.Cmp(core.Col("x"), region.LT, core.Col("y")))
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]float64{}
	for _, tup := range sel.Tuples() {
		k, _ := sel.Value(tup, "k")
		model[k.Render()] = sel.ExistenceProb(tup)
	}
	worlds := mc.SampleWorlds(tbl, nWorlds, 2, "k")
	est := mc.Existence(worlds, func(row pws.Row) bool { return row.Vals["x"] < row.Vals["y"] })
	for k, p := range model {
		// The model's x<y floor goes through the grid approximation; allow
		// the grid's resolution error on top of the MC band.
		tol := mc.Tolerance(p, nWorlds) + 0.02
		if math.Abs(p-est[k]) > tol {
			t.Errorf("key %s: model %v vs MC %v (tol %v)", k, p, est[k], tol)
		}
	}
}

func TestContinuousJoinMatchesMonteCarlo(t *testing.T) {
	reg := core.NewRegistry()
	a := gaussTable(t, reg, "A", "ka", "x", [][3]float64{{5, 2, 0}, {12, 1, 0}})
	b := gaussTable(t, reg, "B", "kb", "y", [][3]float64{{8, 3, 0}})
	j, err := a.Join(b, core.Cmp(core.Col("x"), region.LT, core.Col("y")))
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]float64{}
	for _, tup := range j.Tuples() {
		ka, _ := j.Value(tup, "ka")
		kb, _ := j.Value(tup, "kb")
		model[ka.Render()+"|"+kb.Render()] = j.ExistenceProb(tup)
	}
	wa := mc.SampleWorlds(a, nWorlds, 3, "ka")
	wb := mc.SampleWorlds(b, nWorlds, 4, "kb")
	est := mc.JoinExistence(wa, wb, func(ra, rb pws.Row) bool { return ra.Vals["x"] < rb.Vals["y"] })
	for k, p := range model {
		tol := mc.Tolerance(p, nWorlds) + 0.02
		if math.Abs(p-est[k]) > tol {
			t.Errorf("pair %s: model %v vs MC %v (tol %v)", k, p, est[k], tol)
		}
	}
}

func TestGaussianJoinExactMatchesMonteCarlo(t *testing.T) {
	// A seeded Gaussian join under x < y: every candidate pair has a
	// positive exact probability, so every pair must survive, each with
	// the closed form Φ((µy − µx)/√(σx² + σy²)) and within the Monte-Carlo
	// confidence band with no grid allowance. The last left row sits far
	// above every right row: its pairs are tiny but positive.
	r := rand.New(rand.NewSource(41))
	var ap, bp [][3]float64
	for i := 0; i < 4; i++ {
		ap = append(ap, [3]float64{r.Float64() * 10, 0.5 + r.Float64()*2, 0})
	}
	ap = append(ap, [3]float64{25, 1, 0})
	for i := 0; i < 3; i++ {
		bp = append(bp, [3]float64{r.Float64() * 10, 0.5 + r.Float64()*2, 0})
	}
	reg := core.NewRegistry()
	a := gaussTable(t, reg, "A", "ka", "x", ap)
	b := gaussTable(t, reg, "B", "kb", "y", bp)
	j, err := a.Join(b, core.Cmp(core.Col("x"), region.LT, core.Col("y")))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != len(ap)*len(bp) {
		t.Fatalf("%d pairs survive, want all %d", j.Len(), len(ap)*len(bp))
	}
	model := map[string]float64{}
	for _, tup := range j.Tuples() {
		ka, _ := j.Value(tup, "ka")
		kb, _ := j.Value(tup, "kb")
		model[ka.Render()+"|"+kb.Render()] = j.ExistenceProb(tup)
	}
	wa := mc.SampleWorlds(a, nWorlds, 42, "ka")
	wb := mc.SampleWorlds(b, nWorlds, 43, "kb")
	est := mc.JoinExistence(wa, wb, func(ra, rb pws.Row) bool { return ra.Vals["x"] < rb.Vals["y"] })
	for i, x := range ap {
		for k, y := range bp {
			key := fmt.Sprintf("%d|%d", i, k)
			p, ok := model[key]
			if !ok {
				t.Errorf("pair %s missing", key)
				continue
			}
			want := numeric.NormalCDF(0, x[0]-y[0], math.Hypot(x[1], y[1]))
			if math.Abs(p-want) > 1e-12 {
				t.Errorf("pair %s: model %v, closed form %v", key, p, want)
			}
			if p <= 0 {
				t.Errorf("pair %s: exact probability %v dropped to zero", key, p)
			}
			if tol := mc.Tolerance(p, nWorlds); math.Abs(p-est[key]) > tol {
				t.Errorf("pair %s: model %v vs MC %v (tol %v)", key, p, est[key], tol)
			}
		}
	}
}

func TestCorrelatedJointSelectMatchesMonteCarlo(t *testing.T) {
	// A correlated 2-D Gaussian dependency set: flooring one coordinate
	// must agree with sampling, including the shifted conditional mean.
	schema := core.MustSchema(
		core.Column{Name: "k", Type: core.IntType},
		core.Column{Name: "x", Type: core.FloatType, Uncertain: true},
		core.Column{Name: "y", Type: core.FloatType, Uncertain: true},
	)
	tbl := core.MustTable("T", schema, [][]string{{"x", "y"}}, nil)
	mvn := dist.MustMultiGaussian([]float64{0, 0}, [][]float64{{1, 0.6}, {0.6, 1}})
	if err := tbl.Insert(core.Row{
		Values: map[string]core.Value{"k": core.Int(0)},
		PDFs:   []core.PDF{{Attrs: []string{"x", "y"}, Dist: mvn}},
	}); err != nil {
		t.Fatal(err)
	}
	sel, err := tbl.Select(core.Cmp(core.Col("x"), region.GT, core.LitF(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	modelP := sel.ExistenceProb(sel.Tuples()[0])
	dy, err := sel.DistOf(sel.Tuples()[0], "y")
	if err != nil {
		t.Fatal(err)
	}
	modelEY := dy.Mean(0)

	worlds := mc.SampleWorlds(tbl, nWorlds, 5, "k")
	var hit, sumY float64
	for _, w := range worlds {
		for _, row := range w.Rows {
			if row.Vals["x"] > 0.5 {
				hit += w.Prob
				sumY += row.Vals["y"] * w.Prob
			}
		}
	}
	if math.Abs(modelP-hit) > mc.Tolerance(modelP, nWorlds)+0.02 {
		t.Errorf("existence: model %v vs MC %v", modelP, hit)
	}
	mcEY := sumY / hit
	if math.Abs(modelEY-mcEY) > 0.05 {
		t.Errorf("conditional E[y]: model %v vs MC %v", modelEY, mcEY)
	}
}

func TestAggregateSumMatchesMonteCarlo(t *testing.T) {
	tbl := gaussTable(t, nil, "T", "k", "x", [][3]float64{
		{10, 2, 0}, {20, 3, 0}, {5, 1, 6}, // third partial
	})
	sum, err := tbl.AggregateSum("x", core.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	worlds := mc.SampleWorlds(tbl, nWorlds, 6, "k")
	var mean float64
	for _, w := range worlds {
		var s float64
		for _, row := range w.Rows {
			s += row.Vals["x"]
		}
		mean += s * w.Prob
	}
	if math.Abs(sum.Mean(0)*sumMass(sum)-mean) > 0.1 {
		t.Errorf("aggregate mean: model %v vs MC %v", sum.Mean(0)*sumMass(sum), mean)
	}
}

func sumMass(d dist.Dist) float64 { return d.Mass() }

func TestToleranceBehaviour(t *testing.T) {
	if mc.Tolerance(0.5, 10_000) < mc.Tolerance(0.5, 100_000) {
		t.Error("tolerance should shrink with more samples")
	}
	if mc.Tolerance(0, 100) <= 0 {
		t.Error("tolerance floor missing")
	}
}
