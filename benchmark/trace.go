package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Times are nanoseconds since the tracer
// started; Parent is an index into the span list (-1 for a root); spans
// of one replay pass share Pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the same replay code runs untraced to measure
// what tracing costs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Pass: pass})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// timed runs fn under a span and returns how long it took; with a nil
// tracer it only times.
func (t *tracer) timed(name string, parent, pass int, fn func()) time.Duration {
	id := t.begin(name, parent, pass)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// spanTotal is the per-name roll-up written next to the raw spans: self
// time is a span's duration minus the part its direct children cover.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) totals() []spanTotal {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-children[i]) / 1e6
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Totals   []spanTotal `json:"totals"`
		Spans    []span      `json:"spans"`
	}{workload, seed, t.totals(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
