package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"beyondft/internal/obs"
)

// tracer keeps the traced run's span trees in memory: one obs.Span tree
// per pass, recorded in the benchmark's own code around each call into a
// layer, and the server-side trees returned by ?trace=1. A nil *tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	trees []*obs.Record
}

func newTracer() *tracer { return &tracer{} }

// pass opens the root span of one pass; nil when tracing is off, so every
// Child, SetAttr and End under it is a no-op.
func (t *tracer) pass() *obs.Span {
	if t == nil {
		return nil
	}
	return obs.StartSpan("pass")
}

// addTree keeps a finished span tree: a pass's Record or a ?trace=1
// response.
func (t *tracer) addTree(rec *obs.Record) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	t.trees = append(t.trees, rec)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every occurrence in
// ms: a span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(r *obs.Record)
	walk = func(r *obs.Record) {
		var iv []interval
		for _, c := range r.Children {
			iv = append(iv, interval{c.StartMs, c.StartMs + c.DurMs})
			walk(c)
		}
		out[r.Name] = append(out[r.Name], r.DurMs-covered(r.StartMs, r.StartMs+r.DurMs, iv))
	}
	for _, r := range t.trees {
		walk(r)
	}
	return out
}

// write dumps every span tree and the per-name self-time summary as one
// JSON document.
func (t *tracer) write(path string) error {
	type summary struct {
		Count   int     `json:"count"`
		TotalMs float64 `json:"self_total_ms"`
		P50Ms   float64 `json:"self_p50_ms"`
		P99Ms   float64 `json:"self_p99_ms"`
	}
	sum := map[string]summary{}
	for name, v := range t.selfTimes() {
		total := 0.0
		for _, x := range v {
			total += x
		}
		sum[name] = summary{len(v), total, quantile(v, 0.5), quantile(v, 0.99)}
	}
	t.mu.Lock()
	doc := struct {
		SelfTime map[string]summary `json:"self_time"`
		Trees    []*obs.Record      `json:"trees"`
	}{sum, t.trees}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type interval struct{ lo, hi float64 }

// covered is the length of [lo,hi] covered by the union of iv.
func covered(lo, hi float64, iv []interval) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	total, cur := 0.0, lo
	for _, x := range iv {
		a, b := math.Max(x.lo, cur), math.Min(x.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// lap is one call's duration on the wall clock and on the CPU clock.
type lap struct{ wall, cpu time.Duration }

// timed runs f and times it on both clocks.
func timed(f func()) lap {
	w, c := time.Now(), cpuTime()
	f()
	return lap{time.Since(w), cpuTime() - c}
}

// setupTime runs f n times and returns the median CPU time in seconds; the
// benchmark's set-up metrics are medians of repeated set-ups.
func setupTime(n int, f func()) float64 {
	var d []float64
	for i := 0; i < n; i++ {
		st := cpuTime()
		f()
		d = append(d, (cpuTime() - st).Seconds())
	}
	return median(d)
}
