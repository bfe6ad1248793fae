package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/experiments"
	"beyondft/internal/obs"
	"beyondft/internal/serve"
)

// serveLoad is one serve workload's load shape.
type serveLoad struct {
	nodes int       // daemons; > 1 forms a cluster at R=2 with gossip
	rates []float64 // ladder of offered rates (requests/s); rates[0] is the base rate
}

// setups is how many times a serve run sets its fleet up; set-up time is
// the median.
const setups = 3

// sloP99 is the latency limit a ladder step must meet at its 99th
// percentile, counting failed and abandoned requests as misses.
const sloP99 = 50 * time.Millisecond

// Request mix. The throughput pool's encoded results are several times the
// daemon's L1 budget, so L1 hits, L2 hits and first-seen computes all occur.
const (
	poolSize    = 800
	zipfS       = 1.5
	l1Budget    = 32 << 10
	batchShare  = 0.03 // requests that are a /v1/batch of batchItems specs
	batchItems  = 8
	whatifShare = 0.01 // requests that are a small /v1/whatif sweep
	dupShare    = 0.02 // requests sent twice at once with a never-seen spec
)

// reqKind distinguishes the three endpoints of the mix.
type reqKind int

const (
	kindThroughput reqKind = iota
	kindBatch
	kindWhatif
)

// request is one scheduled HTTP request.
type request struct {
	due    time.Duration // from the start of its step
	kind   reqKind
	body   []byte
	target int
}

// outcome is what the generator observed for one request. A request that
// was abandoned (not sent), refused, timed out or failed has ok false.
type outcome struct {
	sent bool
	ok   bool
	lag  time.Duration // send time minus due time
	lat  time.Duration // completion minus due time
	rtt  time.Duration // completion minus send time
	body []byte        // kept until the step's responses are checked
}

// mix generates the request stream from the workload seed.
type mix struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	pool   [][]byte
	whatif [][]byte
	fresh  int // never-seen specs handed out so far
}

func newMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, poolSize-1)}
	for i := 0; i < poolSize; i++ {
		m.pool = append(m.pool, throughputSpec(i, rng.Int63n(1<<40)+1))
	}
	for i := 0; i < 2; i++ {
		m.whatif = append(m.whatif, []byte(fmt.Sprintf(
			`{"topo":{"kind":"jellyfish","n":8,"degree":3,"servers":2,"seed":%d},"family":{"kind":"single-link"}}`, rng.Int63n(1<<30)+1)))
	}
	return m
}

// throughputSpec is the i-th small /v1/throughput query: a compute takes
// milliseconds. The shape (size, traffic matrix) follows i through a fixed
// grid, so every seed's pool has the same mix of compute costs at the same
// Zipf ranks; topoSeed, drawn from the seed, makes the wirings differ.
func throughputSpec(i int, topoSeed int64) []byte {
	tms := []string{"longest-matching", "permutation", "all-to-all"}
	return []byte(fmt.Sprintf(`{"topo":{"kind":"jellyfish","n":%d,"degree":%d,"servers":%d,"seed":%d},"tm":%q,"x":%g,"seed":%d}`,
		8+2*(i%3), 3+(i/3)%2, 2+(i/6)%2, topoSeed, tms[(i/12)%3], 0.5+0.5*float64((i/36)%2), 1+(i/72)%3))
}

// schedule draws a Poisson arrival stream at rate for d, round-robin over
// targets.
func (m *mix) schedule(rate float64, d time.Duration, targets int) []request {
	var out []request
	var t time.Duration
	for {
		t += time.Duration(m.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		rq := request{due: t, kind: kindThroughput, target: len(out) % targets}
		switch u := m.rng.Float64(); {
		case u < whatifShare:
			rq.kind = kindWhatif
			rq.body = m.whatif[m.rng.Intn(len(m.whatif))]
		case u < whatifShare+batchShare:
			rq.kind = kindBatch
			var b bytes.Buffer
			for j := 0; j < batchItems; j++ {
				fmt.Fprintf(&b, "{\"kind\":\"throughput\",\"spec\":%s}\n", m.pool[m.zipf.Uint64()])
			}
			rq.body = b.Bytes()
		case u < whatifShare+batchShare+dupShare:
			m.fresh++
			rq.body = throughputSpec(m.fresh, -int64(m.fresh))
			out = append(out, rq)
			rq.target = len(out) % targets
		default:
			rq.body = m.pool[m.zipf.Uint64()]
		}
		out = append(out, rq)
	}
}

// fleet is the daemons under test, in process, on ephemeral loopback ports
// with fresh cache directories.
type fleet struct {
	servers  []*serve.Server
	clusters []*cluster.Cluster
	urls     []string
}

func startFleet(dir string, n int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		s, err := serve.New(serve.Config{
			Experiments:    experiments.DefaultConfig(),
			CacheDir:       filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			L1Bytes:        l1Budget,
			Workers:        runtime.NumCPU(),
			QueueDepth:     2 * runtime.NumCPU(),
			RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, s)
		f.urls = append(f.urls, "http://"+s.Addr())
	}
	if n > 1 {
		for _, s := range f.servers {
			cl, err := cluster.New(cluster.Config{
				Self:           "http://" + s.Addr(),
				Peers:          f.urls,
				Replication:    2,
				GossipInterval: 200 * time.Millisecond,
				Registry:       s.Metrics().Registry(),
			})
			if err != nil {
				f.stop()
				return nil, err
			}
			s.EnableCluster(cl)
			cl.Start()
			f.clusters = append(f.clusters, cl)
		}
	}
	return f, nil
}

// ready waits until every daemon answers /readyz and, in a cluster, every
// node has completed a gossip exchange and sees the whole ring.
func (f *fleet) ready(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, u := range f.urls {
		for {
			resp, err := client.Get(u + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 30s", u)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, cl := range f.clusters {
		for len(cl.Membership().Live()) != len(f.urls) || cl.Metrics().Gossips.Load() == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("ring did not converge after 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop shuts the fleet down. A shutdown error only means the drain budget
// ran out; the run's results are taken by then, so it is not reported.
func (f *fleet) stop() {
	for _, cl := range f.clusters {
		cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
}

// setUp sets a fleet of n daemons up the given number of times, each time
// booting it cold, waiting until it is ready and warming it with warm, and
// keeps the last fleet running. It returns the median CPU time of a
// set-up. The warm-up is part of it because a boot alone costs about a
// millisecond of CPU, which read 0.9–1.3 ms on a quiet host and 2.7 ms on
// a busy one; the cache fill is the daemon's own work, and work moved into
// it must show.
func setUp(r *run, client *http.Client, n, times int, warm func(*fleet)) (*fleet, float64, error) {
	var f *fleet
	var took []float64
	for i := 0; i < times; i++ {
		dir, err := os.MkdirTemp(r.dir, "fleet-")
		if err != nil {
			return nil, 0, err
		}
		st := cpuTime()
		if f, err = startFleet(dir, n); err != nil {
			return nil, 0, err
		}
		if err := f.ready(client); err != nil {
			f.stop()
			return nil, 0, err
		}
		warm(f)
		took = append(took, (cpuTime() - st).Seconds())
		if i < times-1 {
			f.stop()
		}
	}
	return f, median(took), nil
}

// generator sends a schedule open-loop: each request goes out at its due
// time on one of at most NumCPU connections, and is timed from its due
// time, so a stall delays (and is charged to) every request behind it.
type generator struct {
	r        *run
	client   *http.Client
	urls     []string
	traced   bool
	results  map[string]string // key -> result bytes: must never change
	self     []float64         // client round trip minus the server's root span (ms)
	failures atomic.Int64      // failed requests so far
}

func newGenerator(r *run, client *http.Client, urls []string, results map[string]string) *generator {
	return &generator{r: r, client: client, urls: urls, results: results}
}

// warmup is the cache fill at the base rate that ends each set-up: it takes
// the burst of first-seen computes of an empty cache out of the timed
// steps, which still see the Zipf tail's first-seen specs.
const warmup = 2 * time.Second

// abandonAfter is how late a request may become before the generator gives
// up sending it; an abandoned request counts as missing the latency limit.
const abandonAfter = 2 * time.Second

// runStep sends reqs, a step of d at rate, and summarises what it observed,
// with the CPU time the process (daemons and generator) used while they
// were in flight.
func (g *generator) runStep(rate float64, d time.Duration, reqs []request) stepStats {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start, cpu := time.Now(), cpuTime()
	// Each connection's worker takes the next request in due order, waits
	// for its due time and sends it: with every worker busy, requests wait
	// and that wait is charged to them.
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				if sent.Sub(due) > abandonAfter {
					continue
				}
				body, ok := g.send(reqs[i])
				done := time.Now()
				out[i] = outcome{sent: true, ok: ok, lag: sent.Sub(due), lat: done.Sub(due), rtt: done.Sub(sent), body: body}
			}
		}()
	}
	wg.Wait()
	cpu = cpuTime() - cpu
	// Responses are checked after the step, so the checks' decoding does
	// not compete with the daemon for the cores while latency is measured.
	for i := range out {
		if out[i].ok {
			out[i].ok = g.check(reqs[i], out[i].body, out[i].rtt)
		}
		out[i].body = nil
	}
	return summarize(rate, d, out, cpu)
}

// send issues one request and returns its body. False means the request
// failed: a transport error, a timeout or a non-200 status such as a 429
// admission refusal. A failed request is counted, not a failed check; the
// checks are for the bodies of the requests that succeeded.
func (g *generator) send(rq request) ([]byte, bool) {
	path := g.path(rq)
	resp, err := g.client.Post(g.urls[rq.target]+path, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		g.logFailure("POST %s: %v", path, err)
		return nil, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		g.logFailure("POST %s: status %d %v: %.200s", path, resp.StatusCode, err, body)
		return nil, false
	}
	return body, true
}

// logFailure reports the first few failed requests of a run on stderr.
func (g *generator) logFailure(format string, args ...any) {
	if g.failures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: request failed: "+format+"\n", args...)
	}
}

func (g *generator) path(rq request) string {
	path := map[reqKind]string{kindThroughput: "/v1/throughput", kindBatch: "/v1/batch", kindWhatif: "/v1/whatif"}[rq.kind]
	if g.traced && rq.kind != kindBatch {
		path += "?trace=1"
	}
	return path
}

// check validates one 200 response; rtt is the client round trip.
func (g *generator) check(rq request, body []byte, rtt time.Duration) bool {
	if rq.kind == kindBatch {
		return g.checkBatch(body)
	}
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
		Trace  *obs.Record     `json:"trace"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		g.r.check(false, "POST %s: bad envelope: %v", g.path(rq), err)
		return false
	}
	if env.Trace != nil {
		g.r.tr.addTree(env.Trace)
		g.self = append(g.self, ms(rtt)-env.Trace.DurMs)
	}
	if rq.kind == kindWhatif {
		return g.checkWhatif(env.Key, env.Result)
	}
	return g.checkThroughput(env.Key, env.Result)
}

// checkThroughput: 0 <= throughput <= upper_bound <= 1, and the bytes for a
// key never change across the run and across nodes.
func (g *generator) checkThroughput(key string, res json.RawMessage) bool {
	var tr serve.ThroughputResult
	if err := json.Unmarshal(res, &tr); err != nil {
		g.r.check(false, "throughput %.12s: %v", key, err)
		return false
	}
	if !(tr.Throughput >= 0 && tr.Throughput <= tr.UpperBound && tr.UpperBound <= 1) {
		g.r.check(false, "throughput %.12s: throughput %g, upper bound %g", key, tr.Throughput, tr.UpperBound)
		return false
	}
	return g.sameBytes(key, res)
}

func (g *generator) checkWhatif(key string, res json.RawMessage) bool {
	var wr serve.WhatifResult
	if err := json.Unmarshal(res, &wr); err != nil || wr.Report == nil {
		g.r.check(false, "whatif %.12s: %v", key, err)
		return false
	}
	b := wr.Report.Base
	ok := b.Throughput > 0 && b.Throughput <= b.UpperBound && len(wr.Report.Results) == wr.Scenarios
	for _, s := range wr.Report.Results {
		ok = ok && s.Throughput >= 0 && s.Throughput <= b.UpperBound*(1+1e-9)
	}
	if !ok {
		g.r.check(false, "whatif %.12s: inconsistent report (base %g/%g)", key, b.Throughput, b.UpperBound)
		return false
	}
	return g.sameBytes(key, res)
}

func (g *generator) checkBatch(body []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	items, ok := 0, true
	for sc.Scan() {
		var line struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
			Done   *struct {
				Items  int `json:"items"`
				Errors int `json:"errors"`
			} `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			g.r.check(false, "batch: bad line: %v", err)
			return false
		}
		switch {
		case line.Done != nil:
			if line.Done.Items != batchItems || line.Done.Errors != 0 || items != batchItems {
				g.r.check(false, "batch: done %+v after %d result lines", *line.Done, items)
				return false
			}
			return ok
		case line.Error != "":
			// An item the daemon could not serve (a timeout, saturation
			// outlasting the batch) fails the request, like a non-200.
			g.logFailure("batch: item error %s", line.Error)
			return false
		default:
			items++
			ok = g.checkThroughput(line.Key, line.Result) && ok
		}
	}
	g.r.check(false, "batch: stream ended without a done line")
	return false
}

func (g *generator) sameBytes(key string, res json.RawMessage) bool {
	if prev, seen := g.results[key]; seen && prev != string(res) {
		g.r.check(false, "key %.12s: result bytes changed: %s vs %s", key, prev, res)
		return false
	}
	g.results[key] = string(res)
	return true
}

// stepStats summarises one ladder step. Every scheduled request is
// attempted; one that was abandoned, refused, timed out or failed its
// checks is failed.
type stepStats struct {
	rate                    float64
	attempted, sent, failed int
	p50, p99, lagP99        float64 // ms, successful requests, from due time
	cpuPerReq               float64 // ms of process CPU per request sent
	meetsSLO                bool
	goodput                 float64 // requests/s completed OK within the limit
}

func summarize(rate float64, d time.Duration, out []outcome, cpu time.Duration) stepStats {
	st := stepStats{rate: rate, attempted: len(out)}
	var lag, withMiss []float64
	within := 0
	for _, o := range out {
		if !o.sent {
			st.failed++
			withMiss = append(withMiss, math.Inf(1))
			continue
		}
		st.sent++
		lag = append(lag, ms(o.lag))
		if !o.ok {
			st.failed++
			withMiss = append(withMiss, math.Inf(1))
			continue
		}
		withMiss = append(withMiss, ms(o.lat))
		if o.lat <= sloP99 {
			within++
		}
	}
	st.p50, st.p99 = windowed(out)
	st.lagP99 = quantile(lag, 0.99)
	// No growing backlog: the last tenth of the step was sent about on time.
	tail := lag[len(lag)*9/10:]
	st.meetsSLO = len(out) > 0 && quantile(withMiss, 0.99) <= ms(sloP99) && median(tail) <= ms(sloP99)/2
	st.goodput = float64(within) / d.Seconds()
	if st.sent > 0 {
		st.cpuPerReq = ms(cpu) / float64(st.sent)
	}
	return st
}

// latencyWindows is how many consecutive windows a step's latency
// percentiles are taken over.
const latencyWindows = 10

// windowed returns the median over consecutive windows of the step of each
// window's p50 and p99 latency (successful requests, ms). One stall, such
// as a collector pause on the shared cores, then moves one window's p99
// instead of the step's.
func windowed(out []outcome) (p50, p99 float64) {
	var w50, w99 []float64
	for w := 0; w < latencyWindows; w++ {
		var lat []float64
		for _, o := range out[w*len(out)/latencyWindows : (w+1)*len(out)/latencyWindows] {
			if o.sent && o.ok {
				lat = append(lat, ms(o.lat))
			}
		}
		w50 = append(w50, quantile(lat, 0.5))
		w99 = append(w99, quantile(lat, 0.99))
	}
	return median(w50), median(w99)
}

// metricsText scrapes /metrics from every daemon and sums the series by
// name (per-peer labels folded into their base name).
func metricsText(client *http.Client, urls []string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range urls {
		resp, err := client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if i < 0 || err != nil {
				continue
			}
			name := line[:i]
			if j := strings.Index(name, "{peer="); j >= 0 {
				name = name[:j]
			}
			sum[name] += v
		}
	}
	return sum, nil
}

// The rungs above the base rate sit at about 0.8x and 1.1x the highest
// rate that met the latency limit when probed on a two-vCPU KVM guest
// (Xeon, shared host), so max_rps_at_slo normally reads the middle rung
// and moves when capacity changes by a fifth or a tenth. Probed over
// finer ladders in 500 req/s steps, that rate was 5000-7000 req/s for one
// daemon (about 6000) and 2000-3000 req/s for three (about 2000; tail
// stalls of 50-160 ms fail the limit above it while the windowed p99 stays
// near 10 ms).
func runServeOpen(r *run) error {
	return runServe(r, serveLoad{nodes: 1, rates: []float64{400, 4800, 6600}})
}

func runServeCluster(r *run) error {
	return runServe(r, serveLoad{nodes: 3, rates: []float64{250, 1600, 2200}})
}

func runServe(r *run, load serveLoad) error {
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
	defer client.CloseIdleConnections()

	// The base step gets most of the time: it carries the latency
	// percentiles; the higher rates only have to show pass or fail.
	steps := make([]time.Duration, len(load.rates))
	steps[0] = r.seconds * 7 / 10
	for i := 1; i < len(steps); i++ {
		steps[i] = (r.seconds - steps[0]) / time.Duration(len(steps)-1)
	}
	m := newMix(r.seed)
	warm := m.schedule(load.rates[0], warmup, load.nodes)
	schedules := make([][]request, len(steps))
	for i, rate := range load.rates {
		schedules[i] = m.schedule(rate, steps[i], load.nodes)
	}

	// Every request counts in the run's attempted and failed totals.
	// success_share is taken at the base rate, over the warm-ups and the
	// base step, which the daemons must serve in full; the higher rungs
	// probe capacity, and their misses show in max_rps_at_slo and
	// error_share.
	var baseAttempted, baseFailed int
	count := func(s stepStats) {
		r.attempted += s.attempted
		r.failed += s.failed
		if s.rate == load.rates[0] {
			baseAttempted += s.attempted
			baseFailed += s.failed
		}
	}
	results := map[string]string{}
	var g *generator
	warmUp := func(f *fleet) {
		g = newGenerator(r, client, f.urls, results)
		count(g.runStep(load.rates[0], warmup, warm))
	}
	f, setup, err := setUp(r, client, load.nodes, setups, warmUp)
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	var stats []stepStats
	for i, rate := range load.rates {
		stats = append(stats, g.runStep(rate, steps[i], schedules[i]))
	}
	counters, err := metricsText(client, f.urls)
	f.stop()
	if err != nil {
		return err
	}
	for _, s := range stats {
		count(s)
		fmt.Fprintf(os.Stderr, "perfbench: %.0f req/s: attempted %d sent %d failed %d p50 %.3fms p99 %.3fms lag p99 %.3fms cpu %.3fms/req meets SLO %v\n",
			s.rate, s.attempted, s.sent, s.failed, s.p50, s.p99, s.lagP99, s.cpuPerReq, s.meetsSLO)
	}
	base := stats[0]
	r.e2e["cpu_ms_per_op"] = base.cpuPerReq
	r.layer["p50_ms"] = base.p50
	r.layer["p99_ms"] = base.p99
	r.layer["ops_per_s"] = base.goodput
	for _, s := range stats {
		if s.meetsSLO {
			r.layer["max_rps_at_slo"] = s.rate
		}
	}
	r.e2e["success_share"] = float64(baseAttempted-baseFailed) / float64(baseAttempted)
	r.layer["error_share"] = float64(r.failed) / float64(r.attempted)
	r.layer["gen.lag_ms"] = base.lagP99
	serveCounters(r, counters)

	if !r.trace {
		return nil
	}
	// Traced run: the base step again, against a fresh fleet, with
	// ?trace=1 on every request; its p50 minus the untraced one is the
	// tracing overhead, and its span trees give the per-stage self times.
	if f, _, err = setUp(r, client, load.nodes, 1, warmUp); err != nil {
		return err
	}
	g.traced = true
	traced := g.runStep(load.rates[0], steps[0], schedules[0])
	f.stop()
	count(traced)
	r.layer["obs.trace_overhead_ms"] = traced.p50 - base.p50
	serveStages(r, g.self)
	return nil
}

// serveCounters maps the daemons' /metrics counters onto the per-layer
// metrics.
func serveCounters(r *run, c map[string]float64) {
	hit := func(tier string) float64 { return c[`beyondftd_cache_hits_total{tier="`+tier+`"}`] }
	r.layer["serve.l1_hits"] = hit("l1")
	r.layer["serve.l2_hits"] = hit("l2")
	r.layer["serve.coalesced"] = c["beyondftd_coalesced_total"]
	r.layer["serve.computed"] = c["beyondftd_computed_total"]
	r.layer["serve.rejected"] = c["beyondftd_rejected_total"]
	r.layer["serve.batch_items"] = c["beyondftd_batch_items_total"]
	// Every engine lookup ends as one of these outcomes (batch items
	// included, which /metrics' request counter does not count one by one).
	served := hit("l1") + hit("l2") + c["beyondftd_coalesced_total"]
	if lookups := served + hit("peer") + c["beyondftd_computed_total"]; lookups > 0 {
		r.layer["serve.hit_ratio"] = served / lookups
	}
	r.layer["fluid.dijkstras"] = c["beyondftd_gk_iterations_total"]
	r.layer["fluid.phases"] = c["beyondftd_gk_phases_total"]
	r.layer["whatif.scenarios"] = c["beyondftd_whatif_scenarios_total"]
	r.layer["whatif.warm_hits"] = c["beyondftd_whatif_warm_hits_total"]
	r.layer["whatif.promoted"] = c["beyondftd_whatif_promotions_total"]
	fwd := c["beyondftd_cluster_forwards_total"]
	r.layer["cluster.forwards"] = fwd
	r.layer["cluster.hedges"] = c["beyondftd_cluster_hedges_total"]
	r.layer["cluster.fallbacks"] = c["beyondftd_cluster_fallbacks_total"]
	r.layer["cluster.replica_pushes"] = c["beyondftd_cluster_replica_pushes_total"]
	r.layer["cluster.replica_drops"] = c["beyondftd_cluster_replica_drops_total"]
	r.layer["cluster.replica_probe_hits"] = c["beyondftd_cluster_replica_probe_hits_total"]
	if fwd > 0 {
		r.layer["cluster.peer_hit_ratio"] = hit("peer") / fwd
	}
}

// serveStages reports self time per span name from the traced run's
// server trees, at p50 and p99.
func serveStages(r *run, handlerSelf []float64) {
	self := r.tr.selfTimes()
	for metric, span := range map[string]string{
		"serve.l1_probe_ms":       "l1-probe",
		"serve.coalesce_wait_ms":  "coalesce-wait",
		"serve.l2_probe_ms":       "l2-probe",
		"serve.admission_ms":      "admission",
		"serve.compute_ms":        "compute",
		"serve.gk_solve_ms":       "gk-solve",
		"serve.build_topology_ms": "build-topology",
		"serve.store_ms":          "store",
		"cluster.peer_forward_ms": "peer-forward",
	} {
		r.layer[metric+".p50"] = quantile(self[span], 0.5)
		r.layer[metric+".p99"] = quantile(self[span], 0.99)
	}
	r.layer["serve.handler_self_ms.p50"] = quantile(handlerSelf, 0.5)
	r.layer["serve.handler_self_ms.p99"] = quantile(handlerSelf, 0.99)

	// GK solves and what-if sweeps inside the daemon, from the same trees.
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	var solves, sweeps []float64
	var solveMs, iters float64
	var walk func(rec *obs.Record, root string)
	walk = func(rec *obs.Record, root string) {
		if rec.Name == "gk-solve" {
			solves = append(solves, rec.DurMs/1000)
			solveMs += rec.DurMs
			for _, a := range rec.Attrs {
				if a.Key == "iterations" {
					iters += a.Value
				}
			}
		}
		if rec.Name == "compute" && root == "/v1/whatif" {
			sweeps = append(sweeps, rec.DurMs/1000)
		}
		for _, c := range rec.Children {
			walk(c, root)
		}
	}
	for _, t := range r.tr.trees {
		walk(t, t.Name)
	}
	r.layer["fluid.solve_s"] = median(solves)
	r.layer["whatif.evaluate_s"] = median(sweeps)
	if iters > 0 {
		r.layer["fluid.us_per_dijkstra"] = solveMs * 1000 / iters
	}
}
