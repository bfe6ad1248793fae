package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"beyondft/internal/fluid"
	"beyondft/internal/harness"
	"beyondft/internal/search"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/whatif"
	"beyondft/internal/workload"
)

// gkEpsilon is the ε of every cold solve in offline-solve.
const gkEpsilon = 0.08

// searchBudget is the fixed coarse-rung evaluation budget of each search.
const searchBudget = 24

// solveInstance is one cold GK solve: a topology with a traffic matrix.
type solveInstance struct {
	name  string // key into reference.json, e.g. "jf54-lm"
	a2a   bool   // A2A(x) (many commodities per source) vs longest matching
	topo  *topology.Topology
	comms []fluid.Commodity
}

// offlineInputs are the inputs of one offline-solve pass, generated from the
// seed's variant.
type offlineInputs struct {
	solves     []solveInstance
	whatifBase solveInstance // single-link sweep base, longest matching
	searchBase *topology.Topology
	searchArgs search.Params
	topoBuild  time.Duration // CPU time spent in topology constructors
}

// buildOfflineInputs builds the paper's flat topologies at laptop scale:
// Jellyfish (54 switches), Xpander (60) and SlimFly (q=5, 50), each with
// longest matching (one commodity per source) and A2A(x) (many per
// source), plus the what-if and search bases. These inputs are fixed: a
// re-wiring or a new A2A rack draw changes a solve's Dijkstra count by
// up to a third, which would bury any code change in input noise. The
// seed drives the design search.
func buildOfflineInputs() offlineInputs {
	var in offlineInputs
	wiring := func(salt int) *rand.Rand { return rand.New(rand.NewSource(int64(salt))) }
	st := cpuTime()
	jf := topology.NewJellyfish(54, 9, 6, wiring(1))
	xp := &topology.NewXpander(9, 6, 6, wiring(2)).Topology
	sf := &topology.NewSlimFly(5, 6).Topology
	wi := topology.NewJellyfish(32, 6, 4, wiring(3))
	in.searchBase = topology.NewJellyfish(32, 6, 4, wiring(4))
	in.topoBuild = cpuTime() - st
	in.searchArgs = search.Params{Kind: "jellyfish", N: 32, Degree: 6, Servers: 4}

	for i, g := range []struct {
		name string
		t    *topology.Topology
		x    float64
	}{{"jf54", jf, 0.6}, {"xp60", xp, 0.45}, {"sf50", sf, 0.6}} {
		serversOf := func(rack int) int { return g.t.Servers[rack] }
		lm := tm.LongestMatching(g.t.G, g.t.ToRs(), serversOf)
		racks := workload.ActiveRacks(g.t, g.x, false, wiring(10+i))
		a2a := tm.AllToAll(racks, serversOf)
		in.solves = append(in.solves,
			solveInstance{name: g.name + "-lm", topo: g.t, comms: fluid.Commodities(lm)},
			solveInstance{name: g.name + "-a2a", a2a: true, topo: g.t, comms: fluid.Commodities(a2a)})
	}
	wiLM := tm.LongestMatching(wi.G, wi.ToRs(), func(rack int) int { return wi.Servers[rack] })
	in.whatifBase = solveInstance{name: "wi32-lm", topo: wi, comms: fluid.Commodities(wiLM)}
	return in
}

// solveCold runs one cold GK solve at ε with telemetry.
func solveCold(in solveInstance, eps float64) (fluid.GKResult, fluid.GKTelemetry) {
	var tel fluid.GKTelemetry
	res := fluid.MaxConcurrentFlow(fluid.NewNetwork(in.topo.G, 1), in.comms,
		fluid.GKOptions{Epsilon: eps, Observer: &tel})
	return res, tel
}

// passCounts are the work counts of one pass; every pass of a run must
// repeat them exactly.
type passCounts struct {
	dijkstras, phases, commodities []int
	whatif                         [4]int64 // iterations, warm hits, promoted, evaluated
	search                         [3]int   // spent, fine solves, accepted
	bestHash                       string
}

func runOffline(r *run) error {
	ref := reference.Offline
	var in offlineInputs
	var builds []float64
	r.e2e["setup_s"] = setupTime(100, func() {
		in = buildOfflineInputs()
		builds = append(builds, in.topoBuild.Seconds())
	})
	r.layer["topology.build_s"] = median(builds)

	// The cold base solve the what-if sweep is compared against (untimed).
	_, wiCold := solveCold(in.whatifBase, gkEpsilon)
	scenarios, err := whatif.Scenarios(in.whatifBase.topo.G, whatif.FamilySpec{Kind: "single-link"})
	if err != nil {
		return err
	}

	var (
		passP50, passMax                 []float64
		lmS, a2aS, allS, sweepS, searchS []float64
		evalsPerS                        []float64
		solveTotal                       time.Duration
		dijTotal                         int
		gaps                             []float64
		first                            *passCounts
		total                            lap
		ops                              int
	)
	deadline := time.Now().Add(r.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		passWall, passCPU := time.Now(), cpuTime()
		root := r.tr.pass()
		var pc passCounts
		var opMs []float64 // wall

		for _, s := range in.solves {
			r.attempted++
			span := root.Child("fluid.MaxConcurrentFlow")
			var res fluid.GKResult
			var tel fluid.GKTelemetry
			t := timed(func() { res, tel = solveCold(s, gkEpsilon) })
			span.End()
			span.SetAttr("dijkstras", float64(tel.Iterations))
			span.SetAttr("phases", float64(tel.Phases))
			span.SetAttr("commodities", float64(len(s.comms)))
			span.SetAttr("cpu_ms", ms(t.cpu))
			opMs = append(opMs, ms(t.wall))
			allS = append(allS, t.cpu.Seconds())
			if s.a2a {
				a2aS = append(a2aS, t.cpu.Seconds())
			} else {
				lmS = append(lmS, t.cpu.Seconds())
			}
			solveTotal += t.cpu
			dijTotal += tel.Iterations
			pc.dijkstras = append(pc.dijkstras, tel.Iterations)
			pc.phases = append(pc.phases, tel.Phases)
			pc.commodities = append(pc.commodities, len(s.comms))
			if pass == 0 {
				gaps = append(gaps, res.Throughput/res.UpperBound)
			}
			b, ok := ref[s.name]
			r.check(ok, "%s: no reference value recorded", s.name)
			r.check(res.Throughput > 0 && res.Throughput <= res.UpperBound,
				"%s: primal %g not in (0, dual %g]", s.name, res.Throughput, res.UpperBound)
			r.check(res.Throughput <= b.Upper*(1+1e-9) && res.UpperBound >= b.Lower*(1-1e-9),
				"%s: [primal %g, dual %g] does not bracket the reference [%g, %g]", s.name, res.Throughput, res.UpperBound, b.Lower, b.Upper)
			r.check(res.Throughput >= (1-gkEpsilon)*b.Lower,
				"%s: primal %g below (1-ε) x reference %g", s.name, res.Throughput, b.Lower)
		}

		r.attempted++
		span := root.Child("whatif.Evaluate")
		var rep *whatif.Report
		t := timed(func() {
			rep, err = whatif.Evaluate(in.whatifBase.topo.G, in.whatifBase.comms, scenarios, whatif.Options{})
		})
		span.End()
		if err != nil {
			r.failed++
			r.check(false, "whatif: %v", err)
		} else {
			span.SetAttr("scenarios", float64(len(scenarios)))
			span.SetAttr("dijkstras", float64(rep.Iterations))
			span.SetAttr("warm_hits", float64(rep.WarmHits))
			span.SetAttr("promoted", float64(rep.Promoted))
			span.SetAttr("cpu_ms", ms(t.cpu))
			opMs = append(opMs, ms(t.wall))
			sweepS = append(sweepS, t.cpu.Seconds())
			pc.whatif = [4]int64{rep.Iterations, int64(rep.WarmHits), int64(rep.Promoted), int64(rep.Evaluated)}
			checkSweep(r, rep, len(scenarios), ref[in.whatifBase.name])
			if pass == 0 {
				r.layer["whatif.scenarios"] = float64(len(scenarios))
				r.layer["whatif.warm_hits"] = float64(rep.WarmHits)
				r.layer["whatif.promoted"] = float64(rep.Promoted)
				r.layer["whatif.dijkstras"] = float64(rep.Iterations)
				r.layer["whatif.cold_ratio"] = float64(rep.Iterations) / (float64(len(scenarios)) * float64(wiCold.Iterations))
			}
		}

		r.attempted++
		cache, err := harness.OpenCache(filepath.Join(r.dir, fmt.Sprintf("search-%d", pass)))
		if err != nil {
			return err
		}
		span = root.Child("search.Run")
		var res *search.Result
		t = timed(func() {
			res, err = search.Run(in.searchBase, in.searchArgs, search.Options{
				Seed: r.seed, Budget: searchBudget, Cache: &search.CandidateCache{Cache: cache}})
		})
		span.End()
		if err != nil {
			r.failed++
			r.check(false, "search: %v", err)
		} else {
			accepted := 0
			for _, s := range res.Steps {
				if s.Accepted {
					accepted++
				}
			}
			span.SetAttr("spent", float64(res.Spent))
			span.SetAttr("fine_solves", float64(res.FineSolves))
			span.SetAttr("accepted", float64(accepted))
			span.SetAttr("cpu_ms", ms(t.cpu))
			opMs = append(opMs, ms(t.wall))
			searchS = append(searchS, t.cpu.Seconds())
			evalsPerS = append(evalsPerS, float64(res.Spent)/t.cpu.Seconds())
			pc.search = [3]int{res.Spent, res.FineSolves, accepted}
			pc.bestHash = res.BestHash
			checkSearch(r, res)
			if pass == 0 {
				r.layer["search.spent"] = float64(res.Spent)
				r.layer["search.fine_solves"] = float64(res.FineSolves)
				r.layer["search.accepted"] = float64(accepted)
			}
		}
		if err := os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("search-%d", pass))); err != nil {
			return err
		}
		root.End()
		r.tr.addTree(root.Record())
		total.wall += time.Since(passWall)
		total.cpu += cpuTime() - passCPU
		passP50 = append(passP50, quantile(opMs, 0.5))
		passMax = append(passMax, quantile(opMs, 1))
		ops += len(opMs)

		if first == nil {
			first = &pc
		} else {
			r.check(fmt.Sprint(pc) == fmt.Sprint(*first),
				"pass %d did different work than pass 0 on the same inputs:\n  %v\n  %v", pass, pc, *first)
		}
	}

	// A pass holds eight operations, so its p99 is its slowest one; both
	// percentiles are medians over the run's passes.
	r.e2e["cpu_ms_per_op"] = ms(total.cpu) / float64(ops)
	r.layer["p50_ms"] = median(passP50)
	r.layer["p99_ms"] = median(passMax)
	r.layer["ops_per_s"] = float64(ops) / total.wall.Seconds()
	r.e2e["success_share"] = float64(r.attempted-r.failed) / float64(r.attempted)

	r.layer["lm_solve_s"] = median(lmS)
	r.layer["a2a_solve_s"] = median(a2aS)
	r.layer["whatif_sweep_s"] = median(sweepS)
	r.layer["whatif.evaluate_s"] = median(sweepS)
	r.layer["search_evals_per_s"] = median(evalsPerS)
	r.layer["search.run_s"] = median(searchS)
	r.layer["fluid.solve_s"] = median(allS)
	r.layer["fluid.us_per_dijkstra"] = float64(solveTotal.Microseconds()) / float64(dijTotal)
	r.layer["fluid.gap"] = median(gaps)
	var dij, ph, comms int
	for i := range first.dijkstras {
		dij += first.dijkstras[i]
		ph += first.phases[i]
		comms += first.commodities[i]
	}
	r.layer["fluid.dijkstras"] = float64(dij)
	r.layer["fluid.phases"] = float64(ph)
	r.layer["fluid.dijkstras_per_commodity"] = float64(dij) / float64(comms)
	return nil
}

// checkSweep validates a single-link sweep: one result per scenario, each
// feasible, and none above the unperturbed network's reference upper bound
// (removing a link cannot raise the maximum concurrent flow).
func checkSweep(r *run, rep *whatif.Report, n int, base bracket) {
	r.check(len(rep.Results) == n, "whatif: %d results for %d scenarios", len(rep.Results), n)
	r.check(rep.Base.Throughput > 0 && rep.Base.Throughput <= rep.Base.UpperBound &&
		rep.Base.Throughput <= base.Upper*(1+1e-9) && rep.Base.Throughput >= (1-gkEpsilon)*base.Lower,
		"whatif: base [%g, %g] inconsistent with reference [%g, %g]",
		rep.Base.Throughput, rep.Base.UpperBound, base.Lower, base.Upper)
	for _, s := range rep.Results {
		ok := s.Throughput >= 0 && s.Throughput <= base.Upper*(1+1e-9)
		if !s.Disconnected {
			ok = ok && s.Throughput <= s.UpperBound
		}
		r.check(ok, "whatif: scenario %s throughput %g (upper %g) out of range", s.ID, s.Throughput, s.UpperBound)
	}
}

// checkSearch validates a search: the best design is a valid topology in
// the baseline's equal-cost envelope and at least as good as the baseline.
func checkSearch(r *run, res *search.Result) {
	r.check(res.BestVal >= res.Baseline, "search: best %g below baseline %g", res.BestVal, res.Baseline)
	t, err := res.Best.Build()
	r.check(err == nil, "search: best design does not build: %v", err)
	if err == nil {
		r.check(res.Envelope.Admits(t), "search: best design leaves the equal-cost envelope")
	}
}
