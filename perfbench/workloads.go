package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"probdb/internal/workload"
)

// opKind separates the op classes that retry differently: reads and
// autocommit writes are single statements, a txn is BEGIN…COMMIT re-run
// whole on a first-writer-wins conflict.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opTxn
)

// op is one client action. A read or write carries one statement; a txn
// carries the INSERTs between its BEGIN and COMMIT.
type op struct {
	kind  opKind
	class string
	sql   []string
}

// spec describes one workload: its data, its preparation, and the op mix
// each client draws from. Everything is a pure function of the seed.
type spec struct {
	name    string
	clients int
	shards  int // 0 = one probserve, else a probrouter over this many shards
	rows    int // rows loaded
	// tailPct is the tail percentile reported as tail_ms. It is fixed per
	// workload from its typical op count in a 20 s run, so that at least
	// ten samples lie beyond it.
	tailPct float64
	// maxOps caps each client's pre-generated op list; a client that runs
	// out stops early and the report says so.
	maxOps int
	// warmOps run per client before timing starts.
	warmOps int
	// checkReads is how many reads the answer check re-runs.
	checkReads int
	// replayOps is the op-list prefix the traced run replays in-process.
	replayOps int
	// cold marks a workload whose every read must scan the heap from disk
	// (coldCheck).
	cold bool
	load func(r *rand.Rand) []string // CREATE TABLE + INSERT batches
	prep []string                    // ANALYZE / CREATE INDEX, before CHECKPOINT
	gen  func(g *opGen) op
}

var specs = []*spec{
	{
		name:    "serve-indexed",
		clients: 2, rows: indexedRows, tailPct: 99, maxOps: 8000, warmOps: 40, checkReads: 60, replayOps: 400,
		load: func(r *rand.Rand) []string { return gaussianTable(r, "readings", indexedRows) },
		prep: []string{
			"ANALYZE readings",
			"CREATE INDEX ON readings (value)",
			"CREATE INDEX ON readings (rid)",
		},
		gen: genServeIndexed,
	},
	{
		name:    "scan-cold",
		clients: 1, rows: mixedRows, tailPct: 75, maxOps: 400, warmOps: 2, checkReads: 3, replayOps: 6, cold: true,
		load: mixedTable,
		gen:  genScanCold,
	},
	{
		name:    "join-floor",
		clients: 1, rows: 2 * joinRows, tailPct: 90, maxOps: 2000, warmOps: 2, checkReads: 2, replayOps: 6,
		load: joinTables,
		gen:  genJoinFloor,
	},
	{
		name:    "cluster-scatter",
		clients: 2, shards: 2, rows: indexedRows, tailPct: 99, maxOps: 8000, warmOps: 40, checkReads: 60, replayOps: 300,
		load: func(r *rand.Rand) []string { return gaussianTable(r, "readings", indexedRows) },
		gen:  genClusterScatter,
	},
}

// setupStmts is every statement a set-up runs: the load, the workload's
// ANALYZE/CREATE INDEX, then CHECKPOINT.
func (s *spec) setupStmts(load []string) []string {
	out := append(append([]string(nil), load...), s.prep...)
	return append(out, "CHECKPOINT")
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

const (
	indexedRows = 20_000
	mixedRows   = 30_000
	joinRows    = 200
	joinKeys    = 100
	insertBatch = 500 // rows per load INSERT statement
	// insertedRID is the first rid the op generators give inserted rows;
	// load rows sit below it.
	insertedRID = 1_000_000
)

// num renders a float exactly, without an exponent (the SQL lexer reads
// plain decimals).
func num(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// round4 keeps generated parameters short in SQL text while staying exact:
// the value rendered is the value both the server and the check oracle see.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// paperGaussian draws one reading's pdf with the paper's §IV parameters and
// renders it as a GAUSSIAN(mean, variance) literal.
func paperGaussian(r *rand.Rand) string {
	mu := workload.MeanLo + r.Float64()*(workload.MeanHi-workload.MeanLo)
	sigma := workload.SigmaMean + r.NormFloat64()*workload.SigmaStddev
	if sigma < 0.05 {
		sigma = 0.05
	}
	return fmt.Sprintf("GAUSSIAN(%s, %s)", num(round4(mu)), num(round4(sigma*sigma)))
}

// partialPDF is the tuple-level-uncertain reading probgen ingests: two
// points whose mass sums below 1, the deficit being the probability the
// reading never happened.
func partialPDF(r *rand.Rand) string {
	v := round4(r.Float64() * 100)
	exist := 0.6 + r.Float64()*0.35
	p1 := round4(exist * (0.3 + 0.4*r.Float64()))
	p2 := round4(exist - p1)
	return fmt.Sprintf("DISCRETE(%s:%s, %s:%s)", num(v), num(p1), num(v+1), num(p2))
}

// insertStmts renders rows as multi-row INSERT statements of insertBatch
// rows each.
func insertStmts(table, cols string, rows []string) []string {
	var out []string
	for lo := 0; lo < len(rows); lo += insertBatch {
		hi := min(lo+insertBatch, len(rows))
		out = append(out, fmt.Sprintf("INSERT INTO %s (%s) VALUES %s", table, cols, strings.Join(rows[lo:hi], ", ")))
	}
	return out
}

func gaussianTable(r *rand.Rand, name string, n int) []string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %s)", i, paperGaussian(r))
	}
	return append([]string{fmt.Sprintf("CREATE TABLE %s (rid INT, value FLOAT UNCERTAIN)", name)},
		insertStmts(name, "rid, value", rows)...)
}

// mixedTable mixes the families the columnar kernels treat differently:
// Gaussian and Uniform runs, Poisson (a discrete support enumerated when the
// heap is decoded) and partial Discrete pdfs.
func mixedTable(r *rand.Rand) []string {
	rows := make([]string, mixedRows)
	for i := range rows {
		var pdf string
		switch r.Intn(4) {
		case 0:
			pdf = paperGaussian(r)
		case 1:
			lo := round4(r.Float64() * 90)
			pdf = fmt.Sprintf("UNIFORM(%s, %s)", num(lo), num(round4(lo+1+r.Float64()*9)))
		case 2:
			pdf = fmt.Sprintf("POISSON(%s)", num(round4(5+r.Float64()*55)))
		default:
			pdf = partialPDF(r)
		}
		rows[i] = fmt.Sprintf("(%d, %s)", i, pdf)
	}
	return append([]string{"CREATE TABLE mixed (rid INT, value FLOAT UNCERTAIN)"},
		insertStmts("mixed", "rid, value", rows)...)
}

// joinTables gives every key the same number of rows in each table, so the
// equi-join pairs up exactly joinRows²/joinKeys candidates for every seed;
// the seed moves the pdfs and the row order only.
func joinTables(r *rand.Rand) []string {
	var out []string
	for _, name := range []string{"l", "r"} {
		rows := make([]string, joinRows)
		for i, k := range r.Perm(joinRows) {
			rows[i] = fmt.Sprintf("(%d, %s)", k%joinKeys, paperGaussian(r))
		}
		out = append(out, fmt.Sprintf("CREATE TABLE %s (k INT, x FLOAT UNCERTAIN)", name))
		out = append(out, insertStmts(name, "k, x", rows)...)
	}
	return out
}

// opGen draws one client's ops. Op classes come from a shuffled deck
// holding each class in its exact share, so every stretch of a run has the
// same mix; the range pool is fixed and shared by all clients and seeds, so
// the hot queries (and memo-cache hits) do not change with the seed.
//
// No measured traffic fixes the mix. The one share the workload definition
// gives is serve-indexed's 75% reads; every other split is an even share
// among the classes that definition names, an unverified assumption.
type opGen struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	deck   []int
	nextID int64
}

// rangePool is the fixed pool of paper-style range queries that indexed
// reads draw from, Zipf-skewed: its first entries are the hot ones.
var rangePool = workload.NewGen(20080401).RangeQueries(64)

func newOpGen(seed int64, client int) *opGen {
	r := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	return &opGen{
		r: r,
		// v=4 spreads the skew over the first dozen entries instead of
		// letting one query dominate.
		zipf:   rand.NewZipf(r, 1.1, 4, uint64(len(rangePool)-1)),
		nextID: insertedRID * int64(client+1),
	}
}

// class draws the next op class: an index into shares, each class
// appearing shares[i] times in every deck of sum(shares) ops.
func (g *opGen) class(shares ...int) int {
	if len(g.deck) == 0 {
		for c, n := range shares {
			for i := 0; i < n; i++ {
				g.deck = append(g.deck, c)
			}
		}
		g.r.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	c := g.deck[0]
	g.deck = g.deck[1:]
	return c
}

func (g *opGen) pooled() (lo, hi string) {
	q := rangePool[g.zipf.Uint64()]
	return num(round4(q.Lo)), num(round4(q.Hi))
}

func (g *opGen) fresh() (lo, hi string) {
	q := workload.NewGen(g.r.Int63()).RangeQuery()
	return num(round4(q.Lo)), num(round4(q.Hi))
}

func (g *opGen) threshold() string { return []string{"0.5", "0.7", "0.9"}[g.r.Intn(3)] }

func (g *opGen) insertRow() string {
	g.nextID++
	return fmt.Sprintf("(%d, %s)", g.nextID, partialPDF(g.r))
}

func read(class, format string, args ...any) op {
	return op{kind: opRead, class: class, sql: []string{fmt.Sprintf(format, args...)}}
}

// genServeIndexed: 75% reads, an even third each of PTI range selects,
// point lookups and top-k; 25% writes, half INSERTs and half txns.
func genServeIndexed(g *opGen) op {
	switch g.class(2, 2, 2, 1, 1) {
	case 0:
		lo, hi := g.pooled()
		return read("pti", "SELECT rid, value FROM readings WHERE PROB(value IN [%s, %s]) >= %s", lo, hi, g.threshold())
	case 1:
		return read("point", "SELECT rid, value FROM readings WHERE rid = %d", g.r.Intn(indexedRows))
	case 2:
		lo, hi := g.pooled()
		return read("topk", "SELECT rid FROM readings WHERE PROB(value IN [%s, %s]) >= 0.2 ORDER BY PROB(value) DESC LIMIT 10", lo, hi)
	case 3:
		return op{kind: opWrite, class: "insert", sql: []string{"INSERT INTO readings (rid, value) VALUES " + g.insertRow()}}
	default:
		return op{kind: opTxn, class: "txn", sql: []string{
			"INSERT INTO readings (rid, value) VALUES " + g.insertRow(),
			"INSERT INTO readings (rid, value) VALUES " + g.insertRow(),
		}}
	}
}

// genScanCold: an even third each of range scans, floor top-k and
// aggregates, the last split between COUNT and AVG.
func genScanCold(g *opGen) op {
	lo, hi := g.fresh()
	switch g.class(2, 2, 1, 1) {
	case 0:
		return read("range", "SELECT rid FROM mixed WHERE PROB(value IN [%s, %s]) >= %s", lo, hi, g.threshold())
	case 1:
		return read("floor-topk", "SELECT rid, value FROM mixed WHERE value < %s ORDER BY PROB(value) DESC LIMIT 10", num(round4(g.r.Float64()*100)))
	case 2:
		return read("count", "SELECT COUNT(*) FROM mixed WHERE PROB(value IN [%s, %s]) >= %s", lo, hi, g.threshold())
	default:
		return read("avg", "SELECT AVG(value) FROM mixed WHERE PROB(value IN [%s, %s]) >= %s", lo, hi, g.threshold())
	}
}

func genJoinFloor(*opGen) op {
	return read("join", "SELECT l.k, r.k FROM l, r WHERE l.k = r.k AND l.x < r.x")
}

// genClusterScatter: an even quarter each of pinned lookups, scatter
// selects, top-k and split INSERTs.
func genClusterScatter(g *opGen) op {
	switch g.class(1, 1, 1, 1) {
	case 0:
		return read("point", "SELECT rid, value FROM readings WHERE rid = %d", g.r.Intn(indexedRows))
	case 1:
		lo, hi := g.pooled()
		return read("scatter", "SELECT rid, value FROM readings WHERE PROB(value IN [%s, %s]) >= %s", lo, hi, g.threshold())
	case 2:
		lo, hi := g.pooled()
		return read("topk", "SELECT rid FROM readings WHERE PROB(value IN [%s, %s]) >= 0.2 ORDER BY PROB(value) DESC LIMIT 10", lo, hi)
	default:
		rows := make([]string, 4)
		for i := range rows {
			rows[i] = g.insertRow()
		}
		return op{kind: opWrite, class: "insert", sql: []string{"INSERT INTO readings (rid, value) VALUES " + strings.Join(rows, ", ")}}
	}
}
