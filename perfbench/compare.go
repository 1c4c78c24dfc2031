package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json compare mode reads: each
// end-to-end metric's bound and direction.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// series holds one result set's values of each (workload, metric).
type series map[string]map[string][]float64

// readResults collects every result document (a stdout line carrying a
// "workload" key) of a file holding the output of one or more runs.
func readResults(path string) (series, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //nolint:errcheck // read only
	out := series{}
	units := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var doc report
		if json.Unmarshal(sc.Bytes(), &doc) != nil || doc.Workload == "" {
			continue
		}
		if out[doc.Workload] == nil {
			out[doc.Workload] = map[string][]float64{}
		}
		for _, m := range []map[string]metric{doc.EndToEnd, doc.PerLayer} {
			for name, v := range m {
				out[doc.Workload][name] = append(out[doc.Workload][name], v.Value)
				units[name] = v.Unit
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("%s holds no result documents", path)
	}
	return out, units, nil
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), the definition the benchmark's spread bounds are stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// runCompare prints every (workload, metric) present in both result sets
// with its median and quartiles on each side. End-to-end metrics are
// judged against their BENCHMARK.json bound: a change worse than the bound
// is flagged, and a pair whose spread exceeds the bound is unresolved
// unless every new run beats every old one.
func runCompare(w io.Writer, oldPath, newPath string) error {
	old, units, err := readResults(oldPath)
	if err != nil {
		return err
	}
	cur, _, err := readResults(newPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name], lower[m.Name] = m.Bound, m.Better == "lower"
		}
	}
	var wls []string
	for wl := range old {
		if cur[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-16s %-30s %-6s %28s %28s %8s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	regressed := 0
	for _, wl := range wls {
		var names []string
		for name := range old[wl] {
			if len(cur[wl][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := old[wl][name], cur[wl][name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			change := math.NaN()
			if a2 != 0 {
				change = (b2 - a2) / math.Abs(a2)
			}
			verdict := ""
			if bound, ok := bounds[name]; ok {
				verdict = judge(a, b, bound, lower[name])
				if verdict == "REGRESSED" {
					regressed++
				}
			}
			fmt.Fprintf(w, "%-16s %-30s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%%  %s\n",
				wl, name, units[name], a2, a1, a3, b2, b1, b3, 100*change, verdict)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d end-to-end metric(s) regressed beyond their bound\n", regressed)
	}
	return nil
}

// spreadOf returns v's median and its quartile spread as a share of it.
func spreadOf(v []float64) (med, spread float64) {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return q2, 0
	}
	return q2, (q3 - q1) / math.Abs(q2)
}

// judge classifies one end-to-end pair: REGRESSED when the new median is
// worse than the old by more than bound, unresolved when either side's
// quartile spread exceeds bound (unless every new run beats every old one),
// improved when better by more than the old side's spread, else same.
func judge(a, b []float64, bound float64, lowerBetter bool) string {
	worse := func(x, y float64) float64 { // how much worse y is than x, as a share of x
		if x == 0 {
			return 0
		}
		if lowerBetter {
			return (y - x) / math.Abs(x)
		}
		return (x - y) / math.Abs(x)
	}
	am, as := spreadOf(a)
	bm, bs := spreadOf(b)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worse(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	d := worse(am, bm)
	switch {
	case max(as, bs) > bound && !allBetter:
		return "unresolved"
	case d > bound:
		return "REGRESSED"
	case -d > as:
		return "improved"
	default:
		return "same"
	}
}
