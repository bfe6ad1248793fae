package main

import (
	"math/rand"
	"time"

	"beyondft/internal/flowsim"
	"beyondft/internal/netsim"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// Fig. 9-style netsim set-up, shortened: A2A among activeServers servers at
// 167 flow starts per second per server, flows measured in
// [measureStart, measureEnd), and every run simulated to at least horizon so
// each simulation is the same amount of simulated time.
const (
	activeServers    = 32
	perServerRate    = 167.0
	measureStart     = 5 * sim.Millisecond
	measureEnd       = 10 * sim.Millisecond
	maxSimTime       = 500 * sim.Millisecond
	netsimHorizon    = 50 * sim.Millisecond
	flowsimFlows     = 1_500
	flowsimMeanGapNs = 2_000
)

// sizeStream is pFabric web-search sizes drawn from a stream of its own:
// every seed sees the same size sequence (common random numbers), so runs
// with different seeds differ in placement and timing, not in how many
// multi-megabyte flows they happened to draw.
type sizeStream struct {
	d   *workload.DiscreteCDF
	rng *sim.RNG
}

func newSizeStream() *sizeStream {
	return &sizeStream{d: workload.PFabricWebSearch(), rng: sim.NewRNG(0x5eed)}
}

func (s *sizeStream) Name() string               { return s.d.Name() }
func (s *sizeStream) Mean() float64              { return s.d.Mean() }
func (s *sizeStream) Sample(workload.Rand) int64 { return s.d.Sample(s.rng) }

// netsimSetup is one curve of the Fig. 9 comparison.
type netsimSetup struct {
	name    string
	topo    *topology.Topology
	routing netsim.RoutingScheme
	pairs   workload.PairDist
}

// packetInputs are the inputs of one packet-sim pass.
type packetInputs struct {
	setups  []netsimSetup
	fatTree *topology.FatTree // flowsim's k=16 fat-tree
	variant int
}

// buildPacketInputs builds the cheap Xpander (54 switches) and the k=8
// fat-tree baseline of the scaled Fig. 9, the A2A pairs over the same number
// of active servers in each, and the k=16 fat-tree of the flowsim run. The
// wiring and the active racks are fixed; the variant, set per pass, drives
// arrivals, pairs and path hashing (runNetsim, runFlowsim).
func buildPacketInputs() packetInputs {
	rng := rand.New(rand.NewSource(7000))
	xp := &topology.NewXpander(5, 9, 3, rng).Topology
	ft := &topology.NewFatTree(8).Topology
	xpPairs := workload.NewA2A(xp, racksFor(xp, activeServers, rng.Perm(len(xp.ToRs()))))
	ftPairs := workload.NewA2A(ft, racksFor(ft, activeServers, nil))
	return packetInputs{
		setups: []netsimSetup{
			{"xpander-hyb", xp, netsim.HYB, xpPairs},
			{"xpander-ecmp", xp, netsim.ECMP, xpPairs},
			{"fattree-ecmp", ft, netsim.ECMP, ftPairs},
		},
		fatTree: topology.NewFatTree(16),
	}
}

// racksFor takes racks in the given order (consecutively when order is
// nil, as for fat-tree pods) until they host target servers.
func racksFor(t *topology.Topology, target int, order []int) []int {
	tors := t.ToRs()
	var out []int
	total := 0
	for i := range tors {
		r := tors[i]
		if order != nil {
			r = tors[order[i]]
		}
		out = append(out, r)
		if total += t.Servers[r]; total >= target {
			break
		}
	}
	return out
}

// fctSummary is the checked output of one netsim run.
type fctSummary struct {
	AvgFCTMs      float64 `json:"avg_fct_ms"`
	P99ShortFCTMs float64 `json:"p99_short_fct_ms"`
	Completed     int     `json:"completed"`
	Drops         uint64  `json:"drops"`
}

// flowsimSummary is the checked output of the flowsim run.
type flowsimSummary struct {
	Completed int64   `json:"completed"`
	MeanFCTNs float64 `json:"mean_fct_ns"`
	P99FCTNs  float64 `json:"p99_fct_ns"`
}

// netsimCounts are the exact work counts of one netsim run: a run on the
// same inputs must repeat them.
type netsimCounts struct {
	Events         uint64 `json:"events"`
	FlowsCompleted int64  `json:"flows_completed"` // measured or not
	Drops          uint64 `json:"drops"`
	HeapHighWater  int    `json:"heap_high_water"`
	SlabHighWater  int    `json:"slab_high_water"`
}

// flowsimCounts are the exact work counts of one flowsim run.
type flowsimCounts struct {
	Events        uint64 `json:"events"`
	AllocRounds   uint64 `json:"alloc_rounds"`
	HeapHighWater int    `json:"heap_high_water"`
}

// netsimRun is one simulated setup: its checked summary and counts.
type netsimRun struct {
	summary  fctSummary
	counts   netsimCounts
	overload bool
	simTime  sim.Time
	took     lap
}

func runNetsim(in packetInputs, i int) netsimRun {
	s := in.setups[i]
	cfg := netsim.DefaultConfig()
	cfg.Routing = s.routing
	cfg.Seed = int64(100*in.variant + i + 1)
	cfg.DiscardCompleted = true
	lambda := perServerRate * float64(s.pairs.ActiveServers())
	exp := workload.DefaultExperiment(s.pairs, newSizeStream(), lambda,
		measureStart, measureEnd, maxSimTime, int64(100*in.variant+i+50))
	var net *netsim.Network
	var res workload.Result
	took := timed(func() {
		net = netsim.NewNetwork(s.topo, cfg)
		runner := workload.NewRunner(exp, net)
		runner.RunToCompletion()
		res = runner.Result()
		if net.Eng.Now() < netsimHorizon {
			runner.Step(netsimHorizon)
		}
	})
	loop := net.LoopStats()
	return netsimRun{
		summary: fctSummary{res.AvgFCTMs, res.P99ShortFCTMs, res.CompletedFlows, res.Drops},
		counts: netsimCounts{
			Events:         loop.Events,
			FlowsCompleted: net.FlowsCompleted(),
			Drops:          net.TotalDrops,
			HeapHighWater:  loop.HeapHighWater,
			SlabHighWater:  net.SlabHighWater(),
		},
		overload: res.Overloaded,
		simTime:  loop.SimTime,
		took:     took,
	}
}

// flowsimRun is the flowsim stream's checked summary and counts.
type flowsimRun struct {
	summary    flowsimSummary
	counts     flowsimCounts
	started    int64
	simPerWall float64
	took       lap
}

// runFlowsim streams a Poisson arrival process of uniform 1–101 KB flows
// between random servers of the k=16 fat-tree, in streaming mode.
func runFlowsim(in packetInputs) flowsimRun {
	cfg := flowsim.DefaultConfig()
	cfg.Seed = int64(in.variant + 1)
	cfg.DiscardCompleted = true
	rng := sim.NewRNG(int64(9000 + in.variant))
	var n *flowsim.Network
	took := timed(func() {
		n = flowsim.NewNetwork(&in.fatTree.Topology, cfg)
		total := in.fatTree.TotalServers()
		var at sim.Time
		for i := 0; i < flowsimFlows; i++ {
			at += sim.Time(rng.ExpFloat64()*flowsimMeanGapNs) + 1
			src, dst := rng.Intn(total), rng.Intn(total)
			if dst == src {
				dst = (dst + 1) % total
			}
			n.ScheduleFlow(at, src, dst, int64(1_000+rng.Intn(100_000)))
			n.Run(at)
		}
		n.Run(at + 60*sim.Second)
	})
	defer n.Close()
	loop := n.Stats()
	return flowsimRun{
		summary:    flowsimSummary{n.Completed(), n.FCTMoments().Mean(), n.FCTSketch().Quantile(0.99)},
		counts:     flowsimCounts{loop.Events, loop.AllocRounds, loop.HeapHighWater},
		started:    n.Started(),
		simPerWall: loop.SimPerWall(),
		took:       took,
	}
}

// runPacketSim runs passes over the variants whose outputs reference.json
// records, starting at the seed's (seed mod numVariants) and taking the
// next one each pass, and runs at least one pass per variant. Variants
// differ in work by up to a fifth (netsim events, flowsim allocation), so
// a run that stayed on one variant would carry that difference into every
// seed-to-seed comparison. Every pass's outputs and exact work counts must
// equal its variant's recorded ones.
func runPacketSim(r *run) error {
	var in packetInputs
	r.e2e["setup_s"] = setupTime(100, func() { in = buildPacketInputs() })

	var (
		passP50, passMax      []float64
		netsimFPS, flowsimFPS []float64
		ops                   int
		total, nsTook         lap
		nsEvents              uint64
		nsSim                 sim.Time
	)
	deadline := time.Now().Add(r.seconds)
	for pass := 0; pass < numVariants || time.Now().Before(deadline); pass++ {
		passWall, passCPU := time.Now(), cpuTime()
		in.variant = int((uint64(r.seed) + uint64(pass)) % numVariants)
		ref := reference.Packet[in.variant]
		root := r.tr.pass()
		root.SetAttr("variant", float64(in.variant))
		var opMs []float64 // wall
		var passCompleted int64
		var passSimCPU time.Duration
		var events, drops uint64
		heapHW, slabHW := 0, 0
		for i, s := range in.setups {
			r.attempted++
			span := root.Child("netsim.Run")
			nr := runNetsim(in, i)
			span.End()
			c := nr.counts
			span.SetAttr("events", float64(c.Events))
			span.SetAttr("flows_completed", float64(c.FlowsCompleted))
			span.SetAttr("drops", float64(c.Drops))
			span.SetAttr("heap_high_water", float64(c.HeapHighWater))
			span.SetAttr("slab_high_water", float64(c.SlabHighWater))
			span.SetAttr("cpu_ms", ms(nr.took.cpu))
			opMs = append(opMs, ms(nr.took.wall))
			passCompleted += c.FlowsCompleted
			passSimCPU += nr.took.cpu
			events += c.Events
			drops += c.Drops
			heapHW = max(heapHW, c.HeapHighWater)
			slabHW = max(slabHW, c.SlabHighWater)
			nsEvents += c.Events
			nsTook.wall += nr.took.wall
			nsTook.cpu += nr.took.cpu
			nsSim += nr.simTime
			want, ok := ref.Netsim[s.name]
			r.check(ok && nr.summary == want, "netsim %s: FCT summary %+v, reference %+v", s.name, nr.summary, want)
			wantCounts := ref.NetsimCounts[s.name]
			r.check(c == wantCounts, "netsim %s variant %d did different work: counts %+v, reference %+v", s.name, in.variant, c, wantCounts)
			r.check(!nr.overload, "netsim %s: measured flows did not finish by %v", s.name, maxSimTime)
		}
		netsimFPS = append(netsimFPS, float64(passCompleted)/passSimCPU.Seconds())

		r.attempted++
		span := root.Child("flowsim.Run")
		fr := runFlowsim(in)
		span.End()
		span.SetAttr("events", float64(fr.counts.Events))
		span.SetAttr("alloc_rounds", float64(fr.counts.AllocRounds))
		span.SetAttr("heap_high_water", float64(fr.counts.HeapHighWater))
		span.SetAttr("flows_completed", float64(fr.summary.Completed))
		span.SetAttr("cpu_ms", ms(fr.took.cpu))
		opMs = append(opMs, ms(fr.took.wall))
		flowsimFPS = append(flowsimFPS, float64(fr.summary.Completed)/fr.took.cpu.Seconds())
		r.check(fr.summary == ref.Flowsim, "flowsim: summary %+v, reference %+v", fr.summary, ref.Flowsim)
		r.check(fr.counts == ref.FlowsimCounts, "flowsim variant %d did different work: counts %+v, reference %+v",
			in.variant, fr.counts, ref.FlowsimCounts)
		r.check(fr.started == flowsimFlows && fr.summary.Completed == fr.started,
			"flowsim: %d of %d flows completed", fr.summary.Completed, fr.started)
		root.End()
		r.tr.addTree(root.Record())
		total.wall += time.Since(passWall)
		total.cpu += cpuTime() - passCPU
		passP50 = append(passP50, quantile(opMs, 0.5))
		passMax = append(passMax, quantile(opMs, 1))
		ops += len(opMs)

		if pass == 0 {
			r.layer["sim.events"] = float64(events)
			r.layer["sim.heap_high_water"] = float64(heapHW)
			r.layer["netsim.drops"] = float64(drops)
			r.layer["netsim.slab_high_water"] = float64(slabHW)
			r.layer["netsim.events_per_flow"] = float64(events) / float64(passCompleted)
			r.layer["flowsim.events"] = float64(fr.counts.Events)
			r.layer["flowsim.alloc_rounds"] = float64(fr.counts.AllocRounds)
			r.layer["flowsim.heap_high_water"] = float64(fr.counts.HeapHighWater)
			r.layer["flowsim.sim_per_wall"] = fr.simPerWall
		}
	}

	// A pass holds four simulations, so its p99 is its slowest one; both
	// percentiles are medians over the run's passes.
	r.e2e["cpu_ms_per_op"] = ms(total.cpu) / float64(ops)
	r.layer["p50_ms"] = median(passP50)
	r.layer["p99_ms"] = median(passMax)
	r.layer["ops_per_s"] = float64(ops) / total.wall.Seconds()
	r.e2e["success_share"] = float64(r.attempted-r.failed) / float64(r.attempted)
	r.layer["netsim_flows_per_s"] = median(netsimFPS)
	r.layer["flowsim_flows_per_s"] = median(flowsimFPS)
	r.layer["sim.events_per_s"] = float64(nsEvents) / nsTook.cpu.Seconds()
	r.layer["netsim.sim_per_wall"] = float64(nsSim) / float64(nsTook.wall)
	return nil
}
