package whatif

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
	"beyondft/internal/stats"
)

// testFabric is a connected degree-4 ring-with-chords switch graph — small
// enough for fast tests, big enough that single phases route many
// Dijkstras and single-link families have dozens of members.
func testFabric(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+5)%n)
	}
	return g
}

// testComms pairs each switch with its antipode at unit demand.
func testComms(n int) []fluid.Commodity {
	var cs []fluid.Commodity
	for i := 0; i < n; i++ {
		cs = append(cs, fluid.Commodity{Src: i, Dst: (i + n/2) % n, Demand: 1})
	}
	return cs
}

func TestFamilySpecNormalize(t *testing.T) {
	bad := []FamilySpec{
		{Kind: "nope"},
		{Kind: "k-link-sample", K: 100},
		{Kind: "k-link-sample", Samples: 9999},
		{Kind: "rack-add", Racks: 100},
		{Kind: "rack-add", Degree: 1000},
	}
	for i, f := range bad {
		if err := f.Normalize(); err == nil {
			t.Errorf("case %d: %+v accepted", i, f)
		}
	}
	f := FamilySpec{Kind: "single-link", K: 7, Seed: 3}
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.K != 0 || f.Seed != 0 {
		t.Fatalf("ignored fields not zeroed: %+v", f)
	}
	kl := FamilySpec{Kind: "k-link-sample"}
	if err := kl.Normalize(); err != nil {
		t.Fatal(err)
	}
	if kl.K != 3 || kl.Samples != 32 || kl.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", kl)
	}
}

func TestScenarioFamilies(t *testing.T) {
	g := testFabric(12)
	edges := len(g.Edges())

	single, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != edges {
		t.Fatalf("single-link: %d scenarios for %d edges", len(single), edges)
	}
	sw, err := Scenarios(g, FamilySpec{Kind: "single-switch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw) != g.N() {
		t.Fatalf("single-switch: %d scenarios for %d switches", len(sw), g.N())
	}
	kl, err := Scenarios(g, FamilySpec{Kind: "k-link-sample", K: 2, Samples: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(kl) != 5 {
		t.Fatalf("k-link-sample: %d scenarios", len(kl))
	}
	for _, s := range kl {
		if len(s.Delta.DelEdges) != 2 {
			t.Fatalf("scenario %s deletes %d edges, want 2", s.ID, len(s.Delta.DelEdges))
		}
	}
	ra, err := Scenarios(g, FamilySpec{Kind: "rack-add", Racks: 2, Degree: 3, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 4 {
		t.Fatalf("rack-add: %d scenarios", len(ra))
	}
	for _, s := range ra {
		if s.Delta.AddNodes != 2 || len(s.Delta.AddEdges) != 6 {
			t.Fatalf("scenario %s: %+v", s.ID, s.Delta)
		}
		// Every delta must be applicable.
		if _, err := graph.NewOverlay(g.Frozen(), s.Delta); err != nil {
			t.Fatalf("scenario %s: %v", s.ID, err)
		}
	}
	// Sampled families are a pure function of (seed, index).
	kl2, _ := Scenarios(g, FamilySpec{Kind: "k-link-sample", K: 2, Samples: 5, Seed: 7})
	a, _ := json.Marshal(kl)
	b, _ := json.Marshal(kl2)
	if string(a) != string(b) {
		t.Fatal("sampled family not deterministic")
	}
}

func TestLadderNormalize(t *testing.T) {
	var l Ladder
	if err := l.Normalize(); err != nil {
		t.Fatal(err)
	}
	if l.CoarseEps != 0.25 || l.FineEps != 0.08 || l.TopK != 8 {
		t.Fatalf("defaults: %+v", l)
	}
	for i, bad := range []Ladder{
		{CoarseEps: 0.05, FineEps: 0.1},
		{FineEps: 0.001},
		{TopK: -1},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("case %d: %+v accepted", i, bad)
		}
	}
}

// TestWhatifSweepCostAndAgreement is the acceptance-criteria test: the full
// single-link sweep (warm starts + ε ladder + delta views) must cost less
// than 25% of solving every scenario cold at fine ε, measured in routing
// Dijkstras (deterministic, unlike wall clock), and every result must agree
// with its scenario's cold fine solve within the ε tolerances involved.
func TestWhatifSweepCostAndAgreement(t *testing.T) {
	const n = 24
	g := testFabric(n)
	comms := testComms(n)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	var ladder Ladder
	if err := ladder.Normalize(); err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(g, comms, scens, Options{Ladder: ladder})
	if err != nil {
		t.Fatal(err)
	}

	// Cold baseline: every scenario from scratch at fine ε.
	base := g.Frozen()
	var coldIters int64
	coldThr := make(map[string]float64, len(scens))
	for _, s := range scens {
		ov, err := graph.NewOverlay(base, s.Delta)
		if err != nil {
			t.Fatal(err)
		}
		nw := fluid.NewNetworkFromView(ov, 1.0)
		var tel fluid.GKTelemetry
		res := fluid.MaxConcurrentFlow(nw, comms, fluid.GKOptions{
			Epsilon: ladder.FineEps, Workers: 1, Observer: &tel,
		})
		coldIters += int64(tel.Iterations)
		coldThr[s.ID] = res.Throughput
	}

	ratio := float64(rep.Iterations) / float64(coldIters)
	t.Logf("sweep cost: %d iterations vs %d cold (ratio %.3f), evaluated=%d promoted=%d warm=%d",
		rep.Iterations, coldIters, ratio, rep.Evaluated, rep.Promoted, rep.WarmHits)
	if ratio >= 0.25 {
		t.Fatalf("sweep cost ratio %.3f, acceptance requires < 0.25", ratio)
	}

	// Agreement: promoted results were solved at fine ε (tolerance 2·fine);
	// unpromoted ones at coarse ε (tolerance coarse+fine).
	for _, r := range rep.Results {
		if r.Disconnected {
			t.Fatalf("single-link on a 4-regular fabric disconnected %s", r.ID)
		}
		cold := coldThr[r.ID]
		tol := ladder.CoarseEps + ladder.FineEps
		if r.Promoted {
			tol = 2 * ladder.FineEps
		}
		if rel := math.Abs(r.Throughput-cold) / cold; rel > tol {
			t.Fatalf("%s (promoted=%v): warm %.6f vs cold %.6f, rel %.4f > tol %.3f",
				r.ID, r.Promoted, r.Throughput, cold, rel, tol)
		}
	}
	if rep.Promoted == 0 || len(rep.WorstIDs) != rep.Promoted {
		t.Fatalf("ladder promoted nothing: %+v", rep)
	}
	if rep.Hist.Total() != int64(len(scens)) {
		t.Fatalf("histogram binned %d of %d scenarios", rep.Hist.Total(), len(scens))
	}
}

// TestWhatifDeterministicAcrossWorkers: bit-identical reports at any
// worker count — the smoke-test contract.
func TestWhatifDeterministicAcrossWorkers(t *testing.T) {
	g := testFabric(16)
	comms := testComms(16)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, workers := range []int{1, 2, 8} {
		rep, err := Evaluate(g, comms, scens, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("report differs at %d workers:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestWhatifCacheResume: a second sweep over a populated cache recomputes
// nothing and reproduces the report exactly — resumable sweeps.
func TestWhatifCacheResume(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "k-link-sample", K: 2, Samples: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := &ScenarioCache{Cache: c, BaseSpec: "test-fabric-12"}
	rep1, err := Evaluate(g, comms, scens, Options{Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHits != 0 || rep1.Evaluated == 0 {
		t.Fatalf("first sweep: %+v", rep1)
	}
	rep2, err := Evaluate(g, comms, scens, Options{Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Evaluated != 0 {
		t.Fatalf("second sweep recomputed %d scenarios", rep2.Evaluated)
	}
	if rep2.CacheHits != len(scens)+rep1.Promoted {
		t.Fatalf("second sweep: %d cache hits, want %d", rep2.CacheHits, len(scens)+rep1.Promoted)
	}
	// The scenario content (base, per-scenario results, histogram, frontier)
	// must be identical; the bookkeeping counters naturally differ.
	content := func(r *Report) string {
		data, err := json.Marshal(struct {
			Base    Result
			Results []Result
			Hist    stats.Hist
			Worst   []string
		}{r.Base, r.Results, r.Hist, r.WorstIDs})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if content(rep1) != content(rep2) {
		t.Fatalf("cached report content differs:\n%s\nvs\n%s", content(rep2), content(rep1))
	}
	// A different ε must not alias: NoLadder run at fine ε only hits the
	// fine entries the promotion pass stored.
	rep3, err := Evaluate(g, comms, scens, Options{Cache: sc, NoLadder: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.CacheHits != rep1.Promoted {
		t.Fatalf("NoLadder sweep: %d cache hits, want %d fine entries", rep3.CacheHits, rep1.Promoted)
	}
}

// TestWhatifDisconnectedScenarios: masking a switch that hosts a demand is
// an explicit Disconnected result, not a zero-throughput solve.
func TestWhatifDisconnectedScenarios(t *testing.T) {
	g := graph.New(3) // path 0-1-2; commodity 0→2 transits 1
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comms := []fluid.Commodity{{Src: 0, Dst: 2, Demand: 1}}
	scens, err := Scenarios(g, FamilySpec{Kind: "single-switch"})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := Evaluate(g, comms, scens, Options{Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.Disconnected || r.Throughput != 0 {
			t.Fatalf("masking any switch of a path cuts 0→2, got %+v", r)
		}
	}
	if got := NewMetrics(reg).Disconnected.Load(); got != int64(len(scens)) {
		t.Fatalf("disconnected counter %d, want %d", got, len(scens))
	}
}

// TestWhatifStreamingAndMetrics: OnResult fires once per scenario plus
// once per promotion, and the counters add up.
func TestWhatifStreamingAndMetrics(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var streamed int
	rep, err := Evaluate(g, comms, scens, Options{
		Metrics:  m,
		OnResult: func(Result) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(scens)+rep.Promoted {
		t.Fatalf("streamed %d results, want %d", streamed, len(scens)+rep.Promoted)
	}
	if m.Scenarios.Load() != int64(len(scens)) {
		t.Fatalf("scenario counter %d, want %d", m.Scenarios.Load(), len(scens))
	}
	if m.WarmHits.Load() != int64(rep.WarmHits) {
		t.Fatalf("warm counter %d, report says %d", m.WarmHits.Load(), rep.WarmHits)
	}
	if m.Promotions.Load() != int64(rep.Promoted) {
		t.Fatalf("promotion counter %d, report says %d", m.Promotions.Load(), rep.Promoted)
	}
	if m.RungCoarse.Count() == 0 || m.RungFine.Count() == 0 {
		t.Fatal("rung latency histograms empty")
	}
}

// TestWhatifNoWarmNoLadder: the mechanism switches work and the plain
// cold full-fine sweep still agrees with the accelerated one.
func TestWhatifNoWarmNoLadder(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Evaluate(g, comms, scens, Options{NoWarm: true, NoLadder: true})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Evaluate(g, comms, scens, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmHits != 0 || cold.Promoted != 0 {
		t.Fatalf("NoWarm+NoLadder still warmed/promoted: %+v", cold)
	}
	if fast.Iterations >= cold.Iterations {
		t.Fatalf("accelerated sweep (%d iters) not cheaper than cold (%d)", fast.Iterations, cold.Iterations)
	}
	for i := range scens {
		a, b := cold.Results[i].Throughput, fast.Results[i].Throughput
		tol := 0.25 + 0.08 // coarse+fine ε budgets
		if rel := math.Abs(a-b) / a; rel > tol {
			t.Fatalf("%s: cold %.6f vs fast %.6f", scens[i].ID, a, b)
		}
	}
}

// TestWhatifCancellation: a canceled context aborts the sweep with its
// error instead of returning a partial report.
func TestWhatifCancellation(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(g, comms, scens, Options{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("canceled sweep returned %v", err)
	}
}

// TestWhatifInvalidDelta: a scenario whose delta does not apply surfaces
// as an error, not a panic or silent skip.
func TestWhatifInvalidDelta(t *testing.T) {
	g := testFabric(8)
	comms := testComms(8)
	scens := []Scenario{{ID: "bogus", Delta: graph.Delta{DelNodes: []int{99}}}}
	if _, err := Evaluate(g, comms, scens, Options{}); err == nil {
		t.Fatal("invalid delta accepted")
	}
}

// BenchmarkWhatifSingleLinkSweep (history in BENCH_pr6–7.json) times
// a full single-link-failure sweep with warm starts and the ε ladder on
// the 24-switch test fabric, reporting amortized per-scenario cost.
func BenchmarkWhatifSingleLinkSweep(b *testing.B) {
	const n = 24
	g := testFabric(n)
	comms := testComms(n)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var iters int64
	for i := 0; i < b.N; i++ {
		rep, err := Evaluate(g, comms, scens, Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters = rep.Iterations
	}
	b.ReportMetric(float64(iters)/float64(len(scens)), "iters/scenario")
}
