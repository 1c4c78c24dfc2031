package core

import (
	"math"
	"testing"

	"probdb/internal/dist"
	"probdb/internal/numeric"
	"probdb/internal/region"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// sensorTable builds the paper's Table I: Readings(id, location) with
// location ~ Gaus(mean, variance).
func sensorTable(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "id", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("Readings", schema, nil, nil)
	rows := []struct {
		id       int64
		mu, vari float64
	}{
		{1, 20, 5}, {2, 25, 4}, {3, 13, 1},
	}
	for _, r := range rows {
		err := tbl.Insert(Row{
			Values: map[string]Value{"id": Int(r.id)},
			PDFs:   []PDF{{Attrs: []string{"x"}, Dist: dist.NewGaussianVar(r.mu, r.vari)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// tableII builds the paper's Table II: two tuples over discrete uncertain
// attributes a and b with Δ = {{a},{b}}.
func tableII(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "a", Type: IntType, Uncertain: true},
		Column{Name: "b", Type: IntType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"a"}, {"b"}}, nil)
	if err := tbl.Insert(Row{PDFs: []PDF{
		{Attrs: []string{"a"}, Dist: dist.NewDiscrete([]float64{0, 1}, []float64{0.1, 0.9})},
		{Attrs: []string{"b"}, Dist: dist.NewDiscrete([]float64{1, 2}, []float64{0.6, 0.4})},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{PDFs: []PDF{
		{Attrs: []string{"a"}, Dist: dist.NewDiscrete([]float64{7}, []float64{1})},
		{Attrs: []string{"b"}, Dist: dist.NewDiscrete([]float64{3}, []float64{1})},
	}}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestPaperTableISelectByID(t *testing.T) {
	// §III-C case 1: σ_{id=1}(Readings) = [1, Gaus(20,5)].
	tbl := sensorTable(t)
	r, err := tbl.Select(Cmp(Col("id"), region.EQ, LitI(1)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("got %d tuples, want 1", r.Len())
	}
	tup := r.Tuples()[0]
	v, _ := r.Value(tup, "id")
	if v.I != 1 {
		t.Errorf("id = %v", v.Render())
	}
	d, err := r.DistOf(tup, "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "Gaus(20,5)" {
		t.Errorf("pdf = %v", d)
	}
	// History is copied over (case 1): the node's ancestors are unchanged.
	n, _ := r.NodeOf(tup, "x")
	src, _ := tbl.NodeOf(tbl.Tuples()[0], "x")
	if len(n.Anc) != 1 || n.Anc[0] != src.Anc[0] {
		t.Error("selection should copy histories")
	}
}

func TestPaperSelectALessB(t *testing.T) {
	// §III-C case 2(b) worked example: σ_{a<b}(Table II) yields one tuple
	// with Δ = {{a,b}} and joint Discrete({0,1}:0.06, {0,2}:0.04,
	// {1,2}:0.36).
	tbl := tableII(t)
	r, err := tbl.Select(Cmp(Col("a"), region.LT, Col("b")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("got %d tuples, want 1 (tuple t2 has a=7 ≥ b=3)", r.Len())
	}
	deps := r.DepSets()
	if len(deps) != 1 || len(deps[0]) != 2 {
		t.Fatalf("Δ = %v, want one merged set {a,b}", deps)
	}
	n, err := r.NodeOf(r.Tuples()[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	joint, ok := n.Dist.(*dist.Discrete)
	if !ok {
		t.Fatalf("joint should be discrete, got %T", n.Dist)
	}
	want := map[[2]float64]float64{{0, 1}: 0.06, {0, 2}: 0.04, {1, 2}: 0.36}
	if len(joint.Points()) != len(want) {
		t.Fatalf("joint = %v", joint)
	}
	for k, p := range want {
		if got := joint.At([]float64{k[0], k[1]}); !almostEqual(got, p, 1e-12) {
			t.Errorf("P(a=%v,b=%v) = %v, want %v", k[0], k[1], got, p)
		}
	}
	// The tuple's existence probability is 0.46 = sum of surviving worlds.
	if got := r.ExistenceProb(r.Tuples()[0]); !almostEqual(got, 0.46, 1e-12) {
		t.Errorf("existence = %v, want 0.46", got)
	}
	// History: the new set's ancestors are the union {t1.a, t1.b}.
	if len(n.Anc) != 2 {
		t.Errorf("merged history should have 2 ancestors, got %v", n.Anc)
	}
}

func TestPaperPossibleWorldsTableIII(t *testing.T) {
	// The six possible worlds of Table II and their probabilities
	// (Table III): worlds are (a,b) choices for t1 times the certain t2.
	tbl := tableII(t)
	tup := tbl.Tuples()[0]
	na, _ := tbl.NodeOf(tup, "a")
	nb, _ := tbl.NodeOf(tup, "b")
	worlds := map[[2]float64]float64{
		{0, 1}: 0.06, {0, 2}: 0.04, {1, 1}: 0.54, {1, 2}: 0.36,
	}
	var total numeric.KahanSum
	for w, p := range worlds {
		got := na.Dist.At([]float64{w[0]}) * nb.Dist.At([]float64{w[1]})
		if !almostEqual(got, p, 1e-12) {
			t.Errorf("world %v probability %v, want %v", w, got, p)
		}
		total.Add(got)
	}
	if !almostEqual(total.Value(), 1, 1e-12) {
		t.Errorf("worlds total %v", total.Value())
	}
}

// fig3Table builds the table of Fig. 3: Σ=(a,b), Δ={{a,b}}, with t1 a joint
// over (a,b) and t2 a *partial* joint of mass 0.7.
func fig3Table(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "a", Type: IntType, Uncertain: true},
		Column{Name: "b", Type: IntType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"a", "b"}}, nil)
	if err := tbl.Insert(Row{PDFs: []PDF{{
		Attrs: []string{"a", "b"},
		Dist: dist.NewDiscreteJoint(2, []dist.Point{
			{X: []float64{4, 5}, P: 0.9},
			{X: []float64{2, 3}, P: 0.1},
		}),
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{PDFs: []PDF{{
		Attrs: []string{"a", "b"},
		Dist: dist.NewDiscreteJoint(2, []dist.Point{
			{X: []float64{7, 3}, P: 0.7},
		}),
	}}}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFig3HistoryJoin(t *testing.T) {
	// The paper's Fig. 3: Ta = π_a(T), Tb = π_b(σ_{b>4}(T)); joining Ta and
	// Tb while honouring histories must produce Discrete({4,5}:0.9) for the
	// t1-derived pair — NOT the incorrect independent product
	// Discrete({4,5}:0.81, {2,5}:0.09) — and Discrete({7,5}:0.63) for the
	// (independent) t2×t1 pair.
	tbl := fig3Table(t)

	ta, err := tbl.Project("a")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tbl.Select(Cmp(Col("b"), region.GT, LitI(4)))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sel.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	// Tb should contain only the t1 derivative: Discrete(5:0.9), partial.
	if tb.Len() != 1 {
		t.Fatalf("Tb has %d tuples, want 1 (t2's b=3 fails b>4)", tb.Len())
	}
	db, err := tb.DistOf(tb.Tuples()[0], "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.At([]float64{5}); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("Tb marginal P(b=5) = %v, want 0.9", got)
	}

	// Join: cross product (disjoint names via prefixes), then merge the two
	// uncertain columns into one joint to materialize Fig. 3's result table.
	tbR, err := tb.Renamed(map[string]string{"b": "b2"})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := ta.CrossProduct(tbR)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := cross.MergeDeps("a", "b2")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 2 {
		t.Fatalf("join has %d tuples, want 2", joined.Len())
	}

	// Tuple 1: ta1 (from t1) × tb1 (from t1) — historically dependent.
	n1, err := joined.NodeOf(joined.Tuples()[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	j1, ok := n1.Dist.(*dist.Discrete)
	if !ok {
		t.Fatalf("joint 1 is %T", n1.Dist)
	}
	if got := j1.At([]float64{4, 5}); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("correct P(4,5) = %v, want 0.9 (independence would give 0.81)", got)
	}
	if got := j1.At([]float64{2, 5}); got != 0 {
		t.Errorf("impossible tuple (2,5) has probability %v — this is the Fig. 3 bug", got)
	}

	// Tuple 2: ta2 (from t2) × tb1 (from t1) — independent: 0.7 × 0.9 = 0.63.
	n2, err := joined.NodeOf(joined.Tuples()[1], "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := n2.Dist.At([]float64{7, 5}); !almostEqual(got, 0.63, 1e-12) {
		t.Errorf("independent P(7,5) = %v, want 0.63", got)
	}
}

func TestFig3WithoutHistoriesIsWrong(t *testing.T) {
	// The same pipeline with history tracking off reproduces the incorrect
	// T1 of Fig. 3 — the baseline whose cost Fig. 6 compares against.
	tbl := fig3Table(t)
	tbl.SetTrackHistory(false)

	ta, err := tbl.Project("a")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tbl.Select(Cmp(Col("b"), region.GT, LitI(4)))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sel.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	tbR, err := tb.Renamed(map[string]string{"b": "b2"})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := ta.CrossProduct(tbR)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := cross.MergeDeps("a", "b2")
	if err != nil {
		t.Fatal(err)
	}
	n1, err := joined.NodeOf(joined.Tuples()[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := n1.Dist.At([]float64{4, 5}); !almostEqual(got, 0.81, 1e-12) {
		t.Errorf("historyless P(4,5) = %v, want the incorrect 0.81", got)
	}
	if got := n1.Dist.At([]float64{2, 5}); !almostEqual(got, 0.09, 1e-12) {
		t.Errorf("historyless P(2,5) = %v, want the incorrect 0.09", got)
	}
}

func TestPaperTableIVPartialVsNull(t *testing.T) {
	// Table IV: NULL attribute values versus partial pdfs. Tuple 1 has
	// missing values but certainly exists; tuple 2 exists with probability
	// 0.8.
	schema := MustSchema(
		Column{Name: "a", Type: IntType},
		Column{Name: "b", Type: FloatType, Uncertain: true},
		Column{Name: "c", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("T", schema, [][]string{{"b", "c"}}, nil)
	// Tuple with known pdf of full mass: certainly exists.
	if err := tbl.Insert(Row{
		Values: map[string]Value{"a": Int(1)},
		PDFs: []PDF{{Attrs: []string{"b", "c"}, Dist: dist.NewDiscreteJoint(2, []dist.Point{
			{X: []float64{2, 3}, P: 0.8},
			{X: []float64{4, 4}, P: 0.2},
		})}},
	}); err != nil {
		t.Fatal(err)
	}
	// Tuple with partial pdf: exists with probability 0.8.
	if err := tbl.Insert(Row{
		Values: map[string]Value{"a": Int(2)},
		PDFs: []PDF{{Attrs: []string{"b", "c"}, Dist: dist.NewDiscreteJoint(2, []dist.Point{
			{X: []float64{4, 7}, P: 0.2},
			{X: []float64{4.1, 3.7}, P: 0.6},
		})}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.ExistenceProb(tbl.Tuples()[0]); !almostEqual(got, 1, 1e-12) {
		t.Errorf("tuple 1 existence = %v, want 1", got)
	}
	if got := tbl.ExistenceProb(tbl.Tuples()[1]); !almostEqual(got, 0.8, 1e-12) {
		t.Errorf("tuple 2 existence = %v, want 0.8", got)
	}
}

func TestClosureDefinition4(t *testing.T) {
	// The paper's Ω example: Δ = {{a,b},{c,d},{e,f}}, A = {b,c,g} gives
	// {{a,b,c,d,g},{e,f}}.
	got := closure([][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"b", "c", "g"}})
	if len(got) != 2 {
		t.Fatalf("closure = %v", got)
	}
	want0 := map[string]bool{"a": true, "b": true, "c": true, "d": true, "g": true}
	if len(got[0]) != 5 {
		t.Fatalf("component 0 = %v", got[0])
	}
	for _, a := range got[0] {
		if !want0[a] {
			t.Errorf("unexpected member %q", a)
		}
	}
	if len(got[1]) != 2 || got[1][0] != "e" || got[1][1] != "f" {
		t.Errorf("component 1 = %v", got[1])
	}
}

func TestContinuousSelectSymbolicFloor(t *testing.T) {
	// §III-A: selecting x < 25 on Gaus pdfs floors symbolically.
	tbl := sensorTable(t)
	r, err := tbl.Select(Cmp(Col("x"), region.LT, LitF(25)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("got %d tuples (Gaussian tails never hit zero)", r.Len())
	}
	tup := r.Tuples()[1] // sensor 2: Gaus(25,4) floored at 25 keeps mass 0.5
	d, err := r.DistOf(tup, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(dist.Floored); !ok {
		t.Fatalf("floored gaussian should stay symbolic, got %T", d)
	}
	if !almostEqual(d.Mass(), 0.5, 1e-12) {
		t.Errorf("mass = %v, want 0.5", d.Mass())
	}
	// Sensor 1: mass = P[N(20,5) < 25].
	d1, _ := r.DistOf(r.Tuples()[0], "x")
	want := numeric.NormalCDF(25, 20, math.Sqrt(5))
	if !almostEqual(d1.Mass(), want, 1e-12) {
		t.Errorf("sensor 1 mass = %v, want %v", d1.Mass(), want)
	}
}

func TestContinuousCrossAttributeSelect(t *testing.T) {
	// x op y over jointly Gaussian attributes keeps the paper's symbolic
	// floor [Gaus₂, Floor{…}] with a closed-form mass: D = y − x ~ N(d, s²)
	// with d = µy − µx and s² = σxx + σyy − 2σxy, so P[x < y] = P[D > 0].
	// The independent row is Φ(1/√2) ≈ 0.7602; the MVN row is one
	// correlated joint dependency set.
	mvn := dist.MustMultiGaussian([]float64{2, 1}, [][]float64{{2, 0.8}, {0.8, 1.5}})
	sets := []struct {
		name string
		deps [][]string
		pdfs []PDF
		d, s float64
	}{
		{"independent", nil, []PDF{
			{Attrs: []string{"x"}, Dist: dist.NewGaussian(0, 1)},
			{Attrs: []string{"y"}, Dist: dist.NewGaussian(1, 1)},
		}, 1, math.Sqrt2},
		{"MVN", [][]string{{"x", "y"}}, []PDF{
			{Attrs: []string{"x", "y"}, Dist: mvn},
		}, -1, math.Sqrt(2 + 1.5 - 2*0.8)},
	}
	for _, set := range sets {
		upper := 1 - numeric.NormalCDF(0, set.d, set.s) // P[D > 0]
		lower := numeric.NormalCDF(0, set.d, set.s)     // P[D < 0]
		for _, c := range []struct {
			op   region.Op
			want float64
		}{
			{region.LT, upper}, {region.LE, upper},
			{region.GT, lower}, {region.GE, lower},
			{region.EQ, 0}, {region.NE, 1},
		} {
			schema := MustSchema(
				Column{Name: "x", Type: FloatType, Uncertain: true},
				Column{Name: "y", Type: FloatType, Uncertain: true},
			)
			tbl := MustTable("T", schema, set.deps, nil)
			if err := tbl.Insert(Row{PDFs: set.pdfs}); err != nil {
				t.Fatal(err)
			}
			r, err := tbl.Select(Cmp(Col("x"), c.op, Col("y")))
			if err != nil {
				t.Fatal(err)
			}
			if c.want == 0 {
				if r.Len() != 0 {
					t.Errorf("%s x %v y: zero-mass tuple survived", set.name, c.op)
				}
				continue
			}
			if r.Len() != 1 {
				t.Fatalf("%s x %v y: tuple should survive", set.name, c.op)
			}
			if got := r.ExistenceProb(r.Tuples()[0]); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("%s: P[x %v y] = %v, want %v", set.name, c.op, got, c.want)
			}
			if len(r.DepSets()) != 1 {
				t.Errorf("%s: Δ should be merged: %v", set.name, r.DepSets())
			}
			if _, ok := r.DepDist(r.Tuples()[0], 0).(dist.HalfFloored); !ok {
				t.Errorf("%s x %v y: floor is %v, want a symbolic half-space floor", set.name, c.op, r.DepDist(r.Tuples()[0], 0))
			}
		}
	}
}

func TestSelectPromotesCertainColumn(t *testing.T) {
	// §III-C case 2(b): a predicate across an uncertain and a certain
	// attribute promotes the certain one into the joint via the identity
	// pdf. Certain c=3; uncertain a ∈ {2:0.5, 4:0.5}; a < c keeps {2}.
	schema := MustSchema(
		Column{Name: "c", Type: IntType},
		Column{Name: "a", Type: IntType, Uncertain: true},
	)
	tbl := MustTable("T", schema, nil, nil)
	if err := tbl.Insert(Row{
		Values: map[string]Value{"c": Int(3)},
		PDFs:   []PDF{{Attrs: []string{"a"}, Dist: dist.NewDiscrete([]float64{2, 4}, []float64{0.5, 0.5})}},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Select(Cmp(Col("a"), region.LT, Col("c")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatal("tuple should survive with mass 0.5")
	}
	col, _ := r.Schema().Lookup("c")
	if !col.Uncertain {
		t.Error("promoted column should be uncertain in the result schema")
	}
	if got := r.ExistenceProb(r.Tuples()[0]); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("existence = %v, want 0.5", got)
	}
	// The joint marginal over c is still the point mass at 3.
	dc, err := r.DistOf(r.Tuples()[0], "c")
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.At([]float64{3}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("P(c=3) in partial joint = %v, want 0.5", got)
	}
}

func TestCorrelatedGaussianDependencySet(t *testing.T) {
	// §II-A's moving-object motivation with an exact joint Gaussian: x and
	// y are correlated, so flooring x shifts the y marginal.
	schema := MustSchema(
		Column{Name: "oid", Type: IntType},
		Column{Name: "x", Type: FloatType, Uncertain: true},
		Column{Name: "y", Type: FloatType, Uncertain: true},
	)
	tbl := MustTable("Obj", schema, [][]string{{"x", "y"}}, nil)
	mvn := dist.MustMultiGaussian(
		[]float64{0, 0},
		[][]float64{{1, 0.7}, {0.7, 1}},
	)
	if err := tbl.Insert(Row{
		Values: map[string]Value{"oid": Int(1)},
		PDFs:   []PDF{{Attrs: []string{"x", "y"}, Dist: mvn}},
	}); err != nil {
		t.Fatal(err)
	}
	sel, err := tbl.Select(Cmp(Col("x"), region.GT, LitF(0)))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 1 {
		t.Fatal("tuple should survive with mass 0.5")
	}
	if got := sel.ExistenceProb(sel.Tuples()[0]); !almostEqual(got, 0.5, 0.02) {
		t.Errorf("existence = %v, want ~0.5", got)
	}
	dy, err := sel.DistOf(sel.Tuples()[0], "y")
	if err != nil {
		t.Fatal(err)
	}
	// E[Y | X > 0] = rho·sqrt(2/pi) ≈ 0.5585 for standard bivariate rho=0.7.
	want := 0.7 * math.Sqrt(2/math.Pi)
	if !almostEqual(dy.Mean(0), want, 0.06) {
		t.Errorf("conditional E[y] = %v, want ~%v", dy.Mean(0), want)
	}
}
