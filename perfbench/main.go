// Command perfbench is the repository's benchmark. It drives one workload
// from one process, seeded by an argument, through the program's public
// entry points only, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload offline-solve --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md gives the reasoning and the metric definitions):
//
//	offline-solve  cold GK solves, a what-if sweep and a design search
//	serve-open     one daemon under open-loop Poisson load at a rate ladder
//	serve-cluster  the same load against three daemons at R=2 with gossip
//	packet-sim     netsim (Fig. 9-style) and flowsim (fat-tree k=16)
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around each call into a layer and from the counters the program exposes.
// The traced run keeps its spans in memory and writes them, with self time
// per span name, under .bench_build/perfbench/traces when it ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every workload reports with --trace 0, in the
// order of BENCHMARK.json. An "operation" is the workload's unit of work:
// a GK solve, sweep or search (offline-solve), an HTTP request (serve-*),
// one simulation (packet-sim). Times are on the process CPU clock (cpuTime).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},           // median CPU time of repeated set-ups
	{"peak_rss_mib", "MiB"},    // peak resident set of the whole process
	{"cpu_ms_per_op", "ms"},    // process CPU time per operation
	{"success_share", "share"}, // operations that succeeded over attempted
}

// perLayer lists the metrics every workload reports with --trace 1, in the
// order of BENCHMARK.json. A layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"p50_ms", "ms"},     // median wall-clock operation latency, from its due time
	{"p99_ms", "ms"},     // 99th percentile of the same
	{"ops_per_s", "1/s"}, // operations completed per wall second
	{"lm_solve_s", "s"},
	{"a2a_solve_s", "s"},
	{"whatif_sweep_s", "s"},
	{"search_evals_per_s", "1/s"},
	{"max_rps_at_slo", "1/s"},
	{"error_share", "share"},
	{"netsim_flows_per_s", "1/s"},
	{"flowsim_flows_per_s", "1/s"},
	{"fluid.solve_s", "s"},
	{"fluid.dijkstras", "count"},
	{"fluid.phases", "count"},
	{"fluid.dijkstras_per_commodity", "count"},
	{"fluid.us_per_dijkstra", "us"},
	{"fluid.gap", "ratio"},
	{"whatif.evaluate_s", "s"},
	{"whatif.scenarios", "count"},
	{"whatif.warm_hits", "count"},
	{"whatif.promoted", "count"},
	{"whatif.dijkstras", "count"},
	{"whatif.cold_ratio", "ratio"},
	{"search.run_s", "s"},
	{"search.spent", "count"},
	{"search.fine_solves", "count"},
	{"search.accepted", "count"},
	{"topology.build_s", "s"},
	{"serve.l1_probe_ms.p50", "ms"},
	{"serve.l1_probe_ms.p99", "ms"},
	{"serve.handler_self_ms.p50", "ms"},
	{"serve.handler_self_ms.p99", "ms"},
	{"serve.coalesce_wait_ms.p50", "ms"},
	{"serve.coalesce_wait_ms.p99", "ms"},
	{"serve.l2_probe_ms.p50", "ms"},
	{"serve.l2_probe_ms.p99", "ms"},
	{"serve.admission_ms.p50", "ms"},
	{"serve.admission_ms.p99", "ms"},
	{"serve.compute_ms.p50", "ms"},
	{"serve.compute_ms.p99", "ms"},
	{"serve.gk_solve_ms.p50", "ms"},
	{"serve.gk_solve_ms.p99", "ms"},
	{"serve.build_topology_ms.p50", "ms"},
	{"serve.build_topology_ms.p99", "ms"},
	{"serve.store_ms.p50", "ms"},
	{"serve.store_ms.p99", "ms"},
	{"serve.l1_hits", "count"},
	{"serve.l2_hits", "count"},
	{"serve.coalesced", "count"},
	{"serve.computed", "count"},
	{"serve.rejected", "count"},
	{"serve.batch_items", "count"},
	{"serve.hit_ratio", "ratio"},
	{"cluster.peer_forward_ms.p50", "ms"},
	{"cluster.peer_forward_ms.p99", "ms"},
	{"cluster.forwards", "count"},
	{"cluster.hedges", "count"},
	{"cluster.fallbacks", "count"},
	{"cluster.replica_pushes", "count"},
	{"cluster.replica_drops", "count"},
	{"cluster.replica_probe_hits", "count"},
	{"cluster.peer_hit_ratio", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.heap_high_water", "count"},
	{"netsim.events_per_flow", "count"},
	{"netsim.drops", "count"},
	{"netsim.slab_high_water", "count"},
	{"netsim.sim_per_wall", "ratio"},
	{"flowsim.events", "count"},
	{"flowsim.alloc_rounds", "count"},
	{"flowsim.heap_high_water", "count"},
	{"flowsim.sim_per_wall", "ratio"},
	{"gen.lag_ms", "ms"},
	{"obs.trace_overhead_ms", "ms"},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir is this run's private scratch directory (daemon caches), removed
	// when the run ends.
	dir string
	tr  *tracer // nil unless --trace 1

	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int

	mu       sync.Mutex
	problems []string // failed output checks
}

// check records a failed output check. Safe for concurrent use.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.mu.Lock()
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
}

var workloads = map[string]func(*run) error{
	"offline-solve": runOffline,
	"serve-open":    runServeOpen,
	"serve-cluster": runServeCluster,
	"packet-sim":    runPacketSim,
}

func main() {
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	name := flag.String("workload", "", "workload to run (offline-solve|serve-open|serve-cluster|packet-sim)")
	seed := flag.Int64("seed", 1, "workload seed; the program receives only the inputs generated from it")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	record := flag.Bool("record-reference", false, "recompute reference.json's reference outputs and print them (slow)")
	flag.Parse()

	if *record {
		if err := recordReference(os.Stdout); err != nil {
			fail("record reference: %v", err)
		}
		return
	}
	fn, ok := workloads[*name]
	if !ok {
		fail("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail("need --seconds >= 1 and --trace 0|1")
	}
	if err := loadReference(); err != nil {
		fail("%v", err)
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	dir, err := os.MkdirTemp(mkdirAll(base), "run-")
	if err != nil {
		fail("scratch dir: %v", err)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      dir,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	err = fn(r)
	os.RemoveAll(dir)
	if err != nil {
		fail("%s: %v", *name, err)
	}
	r.e2e["peak_rss_mib"] = peakRSSMiB()
	if r.tr != nil {
		path := filepath.Join(mkdirAll(filepath.Join(base, "traces")), fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fail("write trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	list, vals := endToEnd, r.e2e
	if r.trace {
		list, vals = perLayer, r.layer
	}
	for _, m := range list {
		out.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	if unknown := unknownKeys(vals, list); len(unknown) > 0 {
		fail("metrics missing from the metric table: %s", strings.Join(unknown, ", "))
	}
	if !r.trace {
		// The per-layer numbers an untraced run takes anyway, the wall-clock
		// latency and the workload's own rates among them, go to stderr.
		for _, m := range perLayer {
			if v := r.layer[m.name]; v != 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s = %.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// unknownKeys returns the keys of vals that the metric table does not list
// (a misspelt metric would otherwise be silently reported as 0).
func unknownKeys(vals map[string]float64, list []struct{ name, unit string }) []string {
	known := map[string]bool{}
	for _, m := range list {
		known[m.name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("mkdir %s: %v", dir, err)
	}
	return dir
}

// cpuTime is the CPU time the benchmark process has used so far: user and
// system, all threads. A KVM guest's scheduler leaves out the time the host
// stole from its vCPUs, so on a shared host this clock charges the same
// work the same time where the wall clock does not: on a two-vCPU KVM guest
// (Xeon, shared host) twenty identical GK solves read 622–1195 ms of wall
// time and 452–515 ms of CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
