// Command pktsim runs a single packet-level simulation (§6.4 framework) on
// a chosen topology, routing scheme and workload, and prints the paper's
// three metrics plus simulator counters.
//
// Example:
//
//	pktsim -topo xpander -routing hyb -pairs skew -lambda 2000 -measure 200
//
// -stream switches to bounded-memory mode: completed flows are recycled
// into the slab and statistics stream through the quantile sketch instead
// of retained records. -checkpoint/-halt-at suspend a run mid-experiment
// and -resume continues it; the resumed run's metrics are bit-identical to
// an uninterrupted one as long as every other flag matches.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"beyondft/internal/graph"
	"beyondft/internal/netsim"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "pktsim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	kind := flag.String("topo", "xpander", "fattree | fattree77 | xpander | jellyfish")
	k := flag.Int("k", 8, "fat-tree k")
	degree := flag.Int("degree", 5, "xpander/jellyfish network degree")
	lift := flag.Int("lift", 9, "xpander lift")
	n := flag.Int("n", 54, "jellyfish switch count")
	servers := flag.Int("servers", 3, "servers per switch (flat topologies)")
	routingFlag := flag.String("routing", "hyb", "ecmp | vlb | hyb | hyb-ca | ksp | mptcp")
	pairsFlag := flag.String("pairs", "skew", "a2a | permute | skew | projector | tworacks")
	frac := flag.Float64("x", 0.5, "active rack fraction (a2a/permute)")
	theta := flag.Float64("theta", 0.04, "skew: hot rack fraction")
	phi := flag.Float64("phi", 0.77, "skew: hot traffic fraction")
	sizesFlag := flag.String("sizes", "pfabric", "pfabric | pareto")
	lambda := flag.Float64("lambda", 1000, "aggregate flow-starts per second")
	measureMs := flag.Int64("measure", 100, "measurement window length (ms)")
	warmupMs := flag.Int64("warmup", 50, "warmup before measuring (ms)")
	maxMs := flag.Int64("max", 2000, "simulation cap (ms)")
	nosrv := flag.Bool("ignore-server-links", false, "model server links as unconstrained")
	stream := flag.Bool("stream", false, "bounded memory: recycle completed flows, stream stats through sketches")
	checkpoint := flag.String("checkpoint", "", "with -halt-at: write a checkpoint (JSON) here and exit")
	haltAtMs := flag.Int64("halt-at", 0, "suspend at this simulated time (ms) and write -checkpoint")
	resume := flag.String("resume", "", "resume from a checkpoint file (other flags must match the original run)")
	flowLog := flag.String("flowlog", "", "write per-flow records (CSV) to this file")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", graph.EnvParallelism(),
		"parallel kernel workers (topology/routing precompute), 0 = GOMAXPROCS (default $"+graph.WorkersEnv+")")
	flag.Parse()

	graph.SetParallelism(*workers)
	rng := rand.New(rand.NewSource(*seed))
	spec := topology.Spec{Kind: *kind, K: *k, N: *n, Degree: *degree, Lift: *lift, Servers: *servers}
	if *kind == "fattree77" {
		spec.Kind, spec.Cost = "fattree", 0.77
	}
	t, err := spec.Build(rng)
	if err != nil {
		return err
	}

	var routing netsim.RoutingScheme
	switch *routingFlag {
	case "ecmp":
		routing = netsim.ECMP
	case "vlb":
		routing = netsim.VLB
	case "hyb":
		routing = netsim.HYB
	case "hyb-ca":
		routing = netsim.HYBCA
	case "ksp":
		routing = netsim.KSP
	case "mptcp":
		routing = netsim.MPTCP
	default:
		return fmt.Errorf("unknown routing %q", *routingFlag)
	}

	var pairs workload.PairDist
	switch *pairsFlag {
	case "a2a":
		pairs = workload.NewA2A(t, workload.ActiveRacks(t, *frac, spec.ConsecutiveRacks(), rng))
	case "permute":
		racks := workload.ActiveRacks(t, *frac, spec.ConsecutiveRacks(), rng)
		if len(racks)%2 == 1 {
			racks = racks[:len(racks)-1]
		}
		pairs = workload.NewPermute(t, racks, rng)
	case "skew":
		pairs = workload.NewSkew(t, *theta, *phi, rng)
	case "projector":
		pairs = workload.NewProjecToRLike(t, 0.04, 0.77, rng)
	case "tworacks":
		tors := t.ToRs()
		a := tors[0]
		b := t.G.Neighbors(a)[0]
		if t.Servers[b] == 0 {
			b = tors[1]
		}
		pairs = workload.NewTwoRacks(t, a, b, min(t.Servers[a], t.Servers[b]))
	default:
		return fmt.Errorf("unknown pairs %q", *pairsFlag)
	}

	var sizes workload.FlowSizeDist
	switch *sizesFlag {
	case "pfabric":
		sizes = workload.PFabricWebSearch()
	case "pareto":
		sizes = workload.NewParetoHULL()
	default:
		return fmt.Errorf("unknown sizes %q", *sizesFlag)
	}

	cfg := netsim.DefaultConfig()
	cfg.Routing = routing
	cfg.Seed = *seed
	if *nosrv {
		cfg.ServerLinkRateGbps = 4000
	}
	// Checkpointing needs the bounded-memory path (retained flow records
	// would make snapshots grow without bound), so it implies -stream.
	if *stream || *checkpoint != "" || *resume != "" {
		cfg.DiscardCompleted = true
		if *flowLog != "" {
			return errors.New("-flowlog needs retained flow records; drop -stream/-checkpoint/-resume")
		}
	}
	net := netsim.NewNetwork(t, cfg)
	start := sim.Time(*warmupMs) * sim.Millisecond
	end := start + sim.Time(*measureMs)*sim.Millisecond
	exp := workload.DefaultExperiment(pairs, sizes, *lambda, start, end,
		sim.Time(*maxMs)*sim.Millisecond, *seed)

	var res workload.Result
	switch {
	case *resume != "":
		data, err := os.ReadFile(*resume)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		var cp netsim.Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return fmt.Errorf("resume: parse %s: %w", *resume, err)
		}
		r, err := workload.ResumeRunner(exp, net, &cp)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		r.RunToCompletion()
		res = r.Result()
	case *haltAtMs > 0:
		if *checkpoint == "" {
			return errors.New("-halt-at needs -checkpoint FILE")
		}
		r := workload.NewRunner(exp, net)
		r.Step(sim.Time(*haltAtMs) * sim.Millisecond)
		cp, err := r.Checkpoint()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		data, err := json.Marshal(cp)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := os.WriteFile(*checkpoint, data, 0o644); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Printf("checkpoint: %s at %d ms simulated (%d bytes)\n",
			*checkpoint, *haltAtMs, len(data))
		return nil
	default:
		res = exp.Run(net)
	}

	fmt.Printf("topology:   %s (%d switches, %d servers)\n", t.Name, t.NumSwitches(), t.TotalServers())
	fmt.Printf("routing:    %s   pairs: %s   sizes: %s\n", routing, pairs.Name(), sizes.Name())
	fmt.Printf("lambda:     %.0f flows/s aggregate (%d active servers)\n", *lambda, pairs.ActiveServers())
	fmt.Printf("measured:   %d flows (%d completed, overloaded=%v)\n",
		res.MeasuredFlows, res.CompletedFlows, res.Overloaded)
	fmt.Printf("avg FCT:            %.3f ms\n", res.AvgFCTMs)
	fmt.Printf("p99 short FCT:      %.3f ms\n", res.P99ShortFCTMs)
	fmt.Printf("avg long thruput:   %.3f Gbps\n", res.AvgLongTputGbps)
	fmt.Printf("drops:              %d\n", res.Drops)
	fmt.Printf("avg path length:    %.2f switches/packet\n", net.AvgDataPathHops())
	ls := net.InterSwitchStats()
	fmt.Printf("inter-switch links: %d (tx %d pkts, %d marked, max queue %d)\n",
		ls.Links, ls.Transmitted, ls.Marked, ls.MaxQueue)
	fmt.Printf("events processed:   %d over %.1f ms simulated\n",
		res.Events, float64(res.SimulatedNs)/1e6)

	if *flowLog != "" {
		if err := writeFlowLog(*flowLog, net); err != nil {
			return fmt.Errorf("flowlog: %w", err)
		}
		fmt.Printf("flow log:           %s (%d rows)\n", *flowLog, len(net.Flows()))
	}
	return nil
}

// writeFlowLog dumps one CSV row per flow: id, src, dst, bytes, start_ns,
// fct_ns, done.
func writeFlowLog(path string, net *netsim.Network) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"flow", "src", "dst", "bytes", "start_ns", "fct_ns", "done"}); err != nil {
		return err
	}
	for _, fl := range net.Flows() {
		if fl.Hidden {
			continue
		}
		fct := int64(-1)
		if fl.Done {
			fct = int64(fl.FCT())
		}
		row := []string{
			strconv.Itoa(int(fl.ID)),
			strconv.Itoa(int(fl.SrcServer)),
			strconv.Itoa(int(fl.DstServer)),
			strconv.FormatInt(fl.SizeBytes, 10),
			strconv.FormatInt(int64(fl.StartNs), 10),
			strconv.FormatInt(fct, 10),
			strconv.FormatBool(fl.Done),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
