package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public API. Spans
// of one op share its id; parent is the index of the enclosing span in the
// same tracer, or -1 for the op's root.
type span struct {
	Op     int32  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in memory; they are written out when
// the run ends. A nil tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(opID, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: opID, ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// spanStat summarises one span name: how often it ran, and the median and
// total of its self time (its duration minus the parts its children cover).
type spanStat struct {
	Count       int     `json:"count"`
	SelfP50Us   float64 `json:"self_p50_us"`
	SelfTotalMs float64 `json:"self_total_ms"`
}

// selfTimes computes each span's self time. Spans of one tracer come from
// one goroutine, so children never overlap each other.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func summarise(tracers map[string]*tracer) map[string]spanStat {
	by := map[string][]float64{}
	for _, t := range tracers {
		for i, self := range selfTimes(t.spans) {
			name := t.spans[i].Name
			by[name] = append(by[name], float64(self)/1e3)
		}
	}
	out := map[string]spanStat{}
	for name, v := range by {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		out[name] = spanStat{Count: len(v), SelfP50Us: median(v), SelfTotalMs: sum / 1e3}
	}
	return out
}

// writeSpans writes every span, one JSON object a line, tagged with the
// tracer it came from.
func writeSpans(path string, tracers map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names := make([]string, 0, len(tracers))
	for name := range tracers {
		names = append(names, name)
	}
	sort.Strings(names)
	enc := json.NewEncoder(w)
	for _, name := range names {
		for _, s := range tracers[name].spans {
			if err := enc.Encode(struct {
				Tracer string `json:"tracer"`
				span
			}{name, s}); err != nil {
				f.Close() //nolint:errcheck // already failing
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
