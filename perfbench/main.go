// Command perfbench is probdb's end-to-end benchmark. It boots a real
// probserve (or a probrouter over two shards) on loopback inside this
// process, drives one seeded closed-loop workload through wire.Client for a
// fixed time, checks the answers against an embedded query.DB, and prints
// the end-to-end metrics; with -trace 1 it prints per-layer metrics instead,
// taken from the wire stats, engine accessors and spans around the calls it
// makes into each layer. See README.md.
//
//	perfbench -workload serve-indexed -seed 1 -seconds 10 -trace 0
//	perfbench -compare old.jsonl new.jsonl
//
// Run it from the repository root: it keeps its data under .bench_build/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// A run boots and loads the system at least minSetups times, and more
	// (up to maxSetups) until the set-ups took setupBudget seconds, so a
	// set-up of a few milliseconds still gets a steady median. setup_s is
	// the median; the last deployment is the one measured.
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 1.5
	// poolPages is probserve's per-query buffer pool, in pages: the default
	// server.Config documents. The server does not expose the value it
	// resolved, so scan-cold checks its premise from page reads instead
	// (coldCheck).
	poolPages = 64
	workDir   = ".bench_build"
)

func main() {
	wl := flag.String("workload", "", "workload: serve-indexed, scan-cold, join-floor, cluster-scatter")
	seed := flag.Int64("seed", 1, "seed for the data and the op lists")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	s := specByName(*wl)
	if s == nil {
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	rep, err := run(s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(err)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(doc))
	rep.print(os.Stderr)
	metrics := rep.EndToEnd
	if *trace == 1 {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Correct,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full result document of one run.
type report struct {
	Workload  string              `json:"workload"`
	Env       map[string]any      `json:"env"`
	Correct   bool                `json:"correct"`
	CheckErr  string              `json:"check_error,omitempty"`
	Checked   int                 `json:"checked_reads"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Retries   int                 `json:"retries"` // re-sent statements and re-run txns
	Errors    []string            `json:"errors,omitempty"`
	TailPct   float64             `json:"tail_percentile"`
	TailN     int                 `json:"tail_samples_beyond"`
	Exhausted bool                `json:"op_list_exhausted"`
	Classes   map[string]class    `json:"classes"`
	Setups    []float64           `json:"setup_s_samples"`
	EndToEnd  map[string]metric   `json:"end_to_end"`
	Extra     map[string]metric   `json:"extra"`
	PerLayer  map[string]metric   `json:"per_layer,omitempty"`
	Spans     map[string]spanStat `json:"spans,omitempty"`
	NotRepeat map[string]float64  `json:"counts_not_repeating,omitempty"`
	TraceFile string              `json:"trace_file,omitempty"`
}

// class summarises one op class of the timed phase.
type class struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	Rows  float64 `json:"rows_per_op"`
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	recs      []opRec
	elapsed   time.Duration
	exhausted bool
	rt0, rt1  rtSample
}

// runPhase lets every client work through its op list from next[c] on,
// each sending its next op only once the previous one completed, until dur
// has passed. With dur 0 each client runs exactly n ops (the warm-up).
func runPhase(clients []*client, lists [][]op, next []int, dur time.Duration, n int, led *ledger) phase {
	var ph phase
	recs := make([][]opRec, len(clients))
	var wg sync.WaitGroup
	ph.rt0 = readRuntime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	var exhausted sync.Once
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for done := 0; ; done++ {
				if dur > 0 && !time.Now().Before(deadline) || dur == 0 && done == n {
					return
				}
				i := next[ci]
				if i >= len(lists[ci]) {
					exhausted.Do(func() { ph.exhausted = true })
					return
				}
				next[ci]++
				recs[ci] = append(recs[ci], c.do(lists[ci][i], int32(ci<<24|i), led))
			}
		}(ci, c)
	}
	wg.Wait()
	ph.elapsed = time.Since(t0)
	ph.rt1 = readRuntime()
	for _, r := range recs {
		ph.recs = append(ph.recs, r...)
	}
	return ph
}

// latencies returns each op's latency in ms; failed ops count as +Inf, so
// they miss every percentile they reach.
func (ph *phase) latencies(keep func(*opRec) bool) []float64 {
	var out []float64
	for i := range ph.recs {
		r := &ph.recs[i]
		if keep != nil && !keep(r) {
			continue
		}
		if r.failed {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, float64(r.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// capInf replaces an infinite percentile (it landed on failed ops) with
// the phase length, the longest any op waited.
func (ph *phase) capInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return float64(ph.elapsed.Nanoseconds()) / 1e6
	}
	return v
}

func run(s *spec, seed int64, dur time.Duration, traced bool) (*report, error) {
	root := filepath.Join(workDir, "perfbench-run", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root) //nolint:errcheck // scratch data of this run

	load := s.load(rand.New(rand.NewSource(seed)))
	lists := make([][]op, s.clients)
	for c := range lists {
		g := newOpGen(seed, c)
		for i := 0; i < s.maxOps; i++ {
			lists[c] = append(lists[c], s.gen(g))
		}
	}

	// live_heap_mb leaves out what the benchmark itself holds from here to
	// the end of the timed phase: the load and the op lists.
	heapBase := liveHeapBytes()

	rep := &report{Workload: s.name, TailPct: s.tailPct, Correct: true}
	var dep *deployment
	for i, total := 0, 0.0; ; i++ {
		t0 := time.Now()
		d, err := deploy(s, filepath.Join(root, fmt.Sprintf("setup%d", i)), load)
		if err != nil {
			return nil, err
		}
		secs := time.Since(t0).Seconds()
		rep.Setups = append(rep.Setups, secs)
		total += secs
		if i+1 >= maxSetups || i+1 >= minSetups && total >= setupBudget {
			dep = d
			break
		}
		d.close()
		if err := os.RemoveAll(d.dir); err != nil {
			return nil, err
		}
	}
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	heapPages := dep.heapPages()
	rep.Env = envStamp(s, seed, dur, heapPages)

	clients := make([]*client, s.clients)
	for i := range clients {
		c, err := dial(dep.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		c.rng = rand.New(rand.NewSource(seed<<8 | int64(i)))
		clients[i] = c
	}
	led := &ledger{}
	next := make([]int, s.clients)
	{
		warm := runPhase(clients, lists, next, 0, s.warmOps, led)
		for _, r := range warm.recs {
			if r.failed {
				return nil, fmt.Errorf("warm-up %s op failed: %s", r.class, r.err)
			}
		}
	}
	// Every run starts timing from a collected heap, not from whatever
	// garbage the set-ups and the warm-up left behind.
	runtime.GC()
	ph := runPhase(clients, lists, next, dur, 0, led)
	if s.cold {
		if err := coldCheck(&ph, heapPages); err != nil {
			return nil, err
		}
	}
	rep.endToEnd(s, &ph)
	sums := sumPhase(&ph)
	// The per-op records are folded into rep and sums. Dropping them leaves
	// the program's heap and the baseline as the only live data.
	ph.recs = nil
	live := liveHeapBytes()
	runtime.KeepAlive(load)
	runtime.KeepAlive(lists)
	rep.EndToEnd["live_heap_mb"] = metric{(float64(live) - float64(heapBase)) / (1 << 20), "MB"}
	health, err := dep.health()
	if err != nil {
		return nil, err
	}

	sample := sampleReads(lists, s.checkReads, seed)
	checked, err := answerCheck(dep, load, led, sample)
	rep.Checked = checked
	if err != nil {
		rep.Correct = false
		rep.CheckErr = err.Error()
	}
	if !traced {
		return rep, nil
	}

	// Traced run: the same clients continue their op lists with spans on,
	// for half the phase length, so the traced p50 sits beside the
	// untraced one measured above.
	epoch := time.Now()
	tracers := map[string]*tracer{}
	for i, c := range clients {
		c.tr = newTracer(epoch)
		tracers[fmt.Sprintf("wire.client%d", i)] = c.tr
	}
	tph := runPhase(clients, lists, next, dur/2, 0, led)
	for _, c := range clients {
		c.tr = nil
	}
	routerMs, err := routerProbe(dep, sample)
	if err != nil {
		return nil, err
	}
	dep.close()
	dep = nil

	replay := interleave(lists, s.replayOps)
	etr := newTracer(epoch)
	tracers["engine"] = etr
	r1, err := engineReplay(s, filepath.Join(root, "replay1"), load, replay, etr)
	if err != nil {
		return nil, err
	}
	r2, err := engineReplay(s, filepath.Join(root, "replay2"), load, replay, nil)
	if err != nil {
		return nil, err
	}
	rep.NotRepeat = notRepeating(r1, r2)
	rep.Spans = summarise(tracers)
	rep.TraceFile = filepath.Join(workDir, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", s.name, seed))
	if err := writeSpans(rep.TraceFile, tracers); err != nil {
		return nil, err
	}
	rep.perLayer(&ph, &sums, &tph, health, r1, routerMs)
	return rep, nil
}

// coldCheck confirms that a cold-scan workload measures what it claims:
// its heap holds more pages than the per-query pool, and every timed read
// loaded the whole heap from disk. A change that makes the reads warm makes
// the workload's figures incomparable, so the run fails instead.
func coldCheck(ph *phase, heapPages int64) error {
	if heapPages <= poolPages {
		return fmt.Errorf("cold scan: %d heap pages fit the %d-page pool", heapPages, poolPages)
	}
	for i := range ph.recs {
		r := &ph.recs[i]
		if r.failed || r.kind != opRead {
			continue
		}
		for _, sm := range r.stmts {
			if sm.stats.PageReads < uint64(heapPages) {
				return fmt.Errorf("cold scan: a %s read took %d page reads of %d heap pages, so it did not scan cold", r.class, sm.stats.PageReads, heapPages)
			}
		}
	}
	return nil
}

// interleave takes the first n ops of the clients' lists round-robin: the
// order one session replays them in.
func interleave(lists [][]op, n int) []op {
	var out []op
	for i := 0; len(out) < n && i < len(lists[0]); i++ {
		for _, l := range lists {
			if len(out) < n && i < len(l) {
				out = append(out, l[i])
			}
		}
	}
	return out
}

// sampleReads draws n reads from the op lists, seeded.
func sampleReads(lists [][]op, n int, seed int64) []op {
	var reads []op
	for _, l := range lists {
		for _, o := range l {
			if o.kind == opRead {
				reads = append(reads, o)
			}
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x7a11))
	out := make([]op, n)
	for i := range out {
		out[i] = reads[r.Intn(len(reads))]
	}
	return out
}

// endToEnd derives the end-to-end metrics of the untraced phase, all but
// live_heap_mb, which run measures once the per-op records are dropped.
func (rep *report) endToEnd(s *spec, ph *phase) {
	rep.Attempted = len(ph.recs)
	ok := 0
	rep.Classes = map[string]class{}
	byClass := map[string][]float64{}
	rows := map[string]int{}
	var firsts []float64
	for i := range ph.recs {
		r := &ph.recs[i]
		rep.Retries += r.retries
		if r.failed {
			rep.Failed++
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, r.class+": "+r.err)
			}
			continue
		}
		ok++
		byClass[r.class] = append(byClass[r.class], float64(r.lat.Nanoseconds())/1e6)
		rows[r.class] += r.rows
		if r.first >= 0 {
			firsts = append(firsts, float64(r.first.Nanoseconds())/1e6)
		}
	}
	for name, v := range byClass {
		rep.Classes[name] = class{N: len(v), P50Ms: median(v), Rows: float64(rows[name]) / float64(len(v))}
	}
	lat := ph.latencies(nil)
	rep.TailN = beyond(len(lat), s.tailPct)
	rep.Exhausted = ph.exhausted
	secs := ph.elapsed.Seconds()
	rep.EndToEnd = emptyAsZero(map[string]metric{
		"ops_per_s":       {float64(ok) / secs, "1/s"},
		"p50_ms":          {ph.capInf(median(lat)), "ms"},
		"tail_ms":         {ph.capInf(percentile(lat, s.tailPct)), "ms"},
		"first_row_ms":    {median(firsts), "ms"},
		"alloc_kb_per_op": {float64(ph.rt1.allocBytes-ph.rt0.allocBytes) / 1024 / float64(max(len(ph.recs), 1)), "kB"},
		"setup_s":         {median(rep.Setups), "s"},
	})
	rep.Extra = map[string]metric{
		"fail_frac": {float64(rep.Failed) / float64(max(rep.Attempted, 1)), "1"},
	}
	if w := ph.latencies(func(r *opRec) bool { return r.kind != opRead }); len(w) > 0 {
		rep.Extra["write_p50_ms"] = metric{ph.capInf(median(w)), "ms"}
	}
}

// phaseSums folds a phase's per-op records into the fixed set of numbers
// the per-layer metrics need, so that the records can be dropped before the
// live heap is measured.
type phaseSums struct {
	ops, ok, reads, writes, commits, delivered, bytes, conflicts float64
	// Per statement: median wire overhead, median server time, mean queue
	// wait, all in ms.
	overheadMs, execMs, queueMs                                float64
	probes, pruned, fallbacks, hits, misses, vec, scalar       float64
	rejections, pageReads, pageWrites, walBytes, fsyncs, group float64
	shipped                                                    float64
	p50Ms                                                      float64 // median op latency, failed ops as +Inf
}

func sumPhase(ph *phase) phaseSums {
	var (
		t                         phaseSums
		overhead, execMs, queueMs []float64
	)
	t.ops = float64(len(ph.recs))
	for i := range ph.recs {
		r := &ph.recs[i]
		t.conflicts += float64(r.conflicts)
		if r.failed {
			continue
		}
		t.ok++
		t.bytes += float64(r.bytes)
		if r.kind == opRead {
			t.reads++
			t.delivered += float64(r.rows)
		} else {
			t.writes++
		}
		for _, sm := range r.stmts {
			x := sm.stats
			overhead = append(overhead, float64(int64(sm.clientUs)-int64(x.LatencyMicros))/1e3)
			execMs = append(execMs, float64(x.LatencyMicros)/1e3)
			queueMs = append(queueMs, float64(x.QueueWaitMicros)/1e3)
			t.probes += float64(x.IndexProbes)
			t.pruned += float64(x.IndexPruned)
			t.fallbacks += float64(x.PlannerFallbacks)
			t.hits += float64(x.MassCacheHits)
			t.misses += float64(x.MassCacheMiss)
			t.vec += float64(x.VecTuples)
			t.scalar += float64(x.ScalarTuples)
			t.rejections += float64(x.Rejections)
			t.walBytes += float64(x.WALBytes)
			t.pageWrites += float64(x.PageWrites)
			if r.kind == opRead {
				t.pageReads += float64(x.PageReads)
				t.shipped += float64(x.Rows)
			}
			if x.WALGroupSize > 0 {
				t.commits++
				t.fsyncs += float64(x.WALFsyncs)
				t.group += float64(x.WALGroupSize)
			}
		}
	}
	t.overheadMs, t.execMs, t.queueMs = median(overhead), median(execMs), mean(queueMs)
	t.p50Ms = median(ph.latencies(nil))
	return t
}

// perLayer derives the per-layer metrics: the wire stats of the untraced
// phase (folded into t), HEALTH, the traced phase's spans, and the
// in-process replay.
func (rep *report) perLayer(ph *phase, t *phaseSums, tph *phase, h cacheStats, er *engineRun, routerMs []float64) {
	rt0, rt1 := ph.rt0, ph.rt1
	m := map[string]metric{
		"wire.overhead_ms":              {t.overheadMs, "ms"},
		"wire.bytes_per_op":             {ratio(t.bytes, t.ok), "B"},
		"wire.rows_per_read":            {ratio(t.delivered, t.reads), "count"},
		"wire.codec_us_per_op":          {ratio(er.codecUs, float64(er.ops)), "us"},
		"server.exec_ms":                {t.execMs, "ms"},
		"govern.queue_wait_ms":          {t.queueMs, "ms"},
		"govern.rejections":             {t.rejections, "count"},
		"query.parse_us":                {median(er.parseUs), "us"},
		"plan.probes_per_read":          {ratio(t.probes, t.reads), "count"},
		"plan.pruned_per_probe":         {ratio(t.pruned, t.probes), "count"},
		"plan.fallbacks":                {t.fallbacks, "count"},
		"exec.mass_hit_ratio":           {ratio(t.hits, t.hits+t.misses), "1"},
		"colpdf.vec_ratio":              {ratio(t.vec, t.vec+t.scalar), "1"},
		"colpdf.cache_hit_ratio":        {ratio(float64(h.colHits), float64(h.colHits+h.colMisses)), "1"},
		"colpdf.cache_mb":               {float64(h.colBytes) / (1 << 20), "MB"},
		"storage.page_reads_per_read":   {ratio(t.pageReads, t.reads), "count"},
		"storage.page_writes_per_write": {ratio(t.pageWrites, t.writes), "count"},
		"store.first_batch_ms":          {median(er.firstBatchMs), "ms"},
		"pipe.stream_ms":                {median(er.streamMs), "ms"},
		"pipe.batches_per_read":         {ratio(float64(er.batches), float64(er.reads)), "count"},
		"core.ms_per_pair":              {ratio(float64(er.readNs)/1e6, float64(er.readRows)), "ms"},
		"core.alloc_kb_per_pair":        {ratio(float64(er.readAlloc)/1024, float64(er.readRows)), "kB"},
		"wal.bytes_per_write":           {ratio(t.walBytes, t.writes), "B"},
		"wal.fsyncs_per_commit":         {ratio(t.fsyncs, t.commits), "count"},
		"txn.group_size":                {ratio(t.group, t.commits), "count"},
		"txn.conflict_retries":          {t.conflicts, "count"},
		"cluster.shipped_per_delivered": {ratio(t.shipped, t.delivered), "count"},
		"cluster.router_ms":             {median(routerMs), "ms"},
		"runtime.gc_cpu_frac":           {ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "1"},
		"runtime.gc_per_op":             {ratio(float64(rt1.gcCycles-rt0.gcCycles), t.ops), "count"},
		"runtime.cpu_ms_per_op":         {ratio((rt1.procCPU-rt0.procCPU)*1e3, t.ops), "ms"},
		"trace.overhead_ms":             {median(tph.latencies(nil)) - t.p50Ms, "ms"},
		"counts.not_repeating":          {float64(len(rep.NotRepeat)), "count"},
	}
	rep.PerLayer = emptyAsZero(m)
}

// emptyAsZero reports the NaN of an empty sample as 0: that layer did no
// such work on this workload, or (end to end) no op of that kind completed.
func emptyAsZero(m map[string]metric) map[string]metric {
	for name, v := range m {
		if math.IsNaN(v.Value) {
			m[name] = metric{0, v.Unit}
		}
	}
	return m
}

// cacheStats is the colpdf-cache line of the servers' HEALTH reports.
type cacheStats struct {
	colBytes, colHits, colMisses int64
}

// health sums the colpdf-cache line of every server's HEALTH report.
func (d *deployment) health() (cacheStats, error) {
	var h cacheStats
	for _, srv := range d.servers {
		c, err := dial(srv.Addr().String())
		if err != nil {
			return h, err
		}
		res, err := c.wc.Query("HEALTH")
		c.close()
		if err != nil {
			return h, fmt.Errorf("HEALTH: %w", err)
		}
		for _, line := range strings.Split(res.Message, "\n") {
			var b, hits, misses int64
			if _, err := fmt.Sscanf(line, "colpdf-cache: %d bytes, %d hits, %d misses", &b, &hits, &misses); err == nil {
				h.colBytes += b
				h.colHits += hits
				h.colMisses += misses
			}
		}
	}
	return h, nil
}

// envStamp records what a result depends on besides the code under test.
func envStamp(s *spec, seed int64, dur time.Duration, heapPages int64) map[string]any {
	return map[string]any{
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"commit":            sourceDigest(),
		"seed":              seed,
		"seconds":           dur.Seconds(),
		"clients":           s.clients,
		"shards":            s.shards,
		"loop":              "closed",
		"flush_policy":      "fsync before every commit ack (group commit)",
		"checkpoint_policy": "auto-checkpoint at 1 MiB of WAL",
		"rows":              s.rows,
		"heap_pages":        heapPages,
		"pool_pages":        poolPages,
	}
}

// sourceDigest identifies the code under test: a SHA-256 over the Go
// sources and module files of the checkout. The benchmark runs in checkouts
// that are not git repositories, so it cannot ask git for the commit.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.Walk(".", func(path string, fi os.FileInfo, err error) error { //nolint:errcheck // best-effort stamp
		if err != nil {
			return nil
		}
		if fi.IsDir() && (path == workDir || strings.HasPrefix(fi.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !fi.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// print writes the human-readable summary.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%v: %d ops attempted, %d failed, correct=%v (%d reads checked)\n",
		rep.Workload, rep.Env["seed"], rep.Attempted, rep.Failed, rep.Correct, rep.Checked)
	if rep.CheckErr != "" {
		fmt.Fprintf(w, "  answer check: %s\n", rep.CheckErr)
	}
	fmt.Fprintf(w, "  tail_ms is p%g (%d samples beyond it)\n", rep.TailPct, rep.TailN)
	printMetrics(w, rep.EndToEnd)
	printMetrics(w, rep.Extra)
	if rep.PerLayer != nil {
		printMetrics(w, rep.PerLayer)
		for name, d := range rep.NotRepeat {
			fmt.Fprintf(w, "  count %s did not repeat across two replays (largest difference %.3g%%)\n", name, 100*d)
		}
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
