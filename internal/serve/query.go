package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/obs"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// CodeSalt versions the ad-hoc query computations for the result cache,
// layered the same way as experiments.CodeSalt: bump it whenever the
// topology constructors, the GK solver, or the path kernels change their
// numeric output, so stale cached query results are invalidated.
const CodeSalt = "serve-v1+" + "gk-warm-whatif"

// limits bounds ad-hoc topology sizes. The service computes what-if
// queries interactively; a request for a million-switch Jellyfish belongs
// in the batch harness, and admission control cannot help once a single
// compute is allowed to be arbitrarily large.
var limits = topology.Limits{MaxSwitches: 8192, MaxServers: 256, MaxFatTreeK: 64, MinXpanderLift: 2}

// TopoSpec describes a topology to build. Its JSON encoding is part of
// every query's cache key (see topology.Spec).
type TopoSpec = topology.Spec

// normalizeTopo puts a request's topology in canonical form and applies
// the daemon's size policy on top of the spec's structural validity.
func normalizeTopo(s *TopoSpec) error {
	if err := s.Normalize(); err != nil {
		return err
	}
	return s.Within(limits)
}

// normalizeWorkload fills the defaults of, and checks, the fields the
// throughput and whatif queries share: topology, TM family, active-rack
// fraction and workload seed.
func normalizeWorkload(topo *TopoSpec, tmName *string, x *float64, seed *int64) error {
	if err := normalizeTopo(topo); err != nil {
		return err
	}
	*tmName = cmp.Or(*tmName, "longest-matching")
	if err := workload.CheckFluidTM(*tmName); err != nil {
		return err
	}
	if *x = cmp.Or(*x, 1); *x < 0 || *x > 1 {
		return fmt.Errorf("x=%g: need (0,1]", *x)
	}
	*seed = cmp.Or(*seed, 1)
	return nil
}

// buildTopo constructs a normalized spec from its own seed.
func buildTopo(s *TopoSpec) (*topology.Topology, error) {
	return s.Build(rand.New(rand.NewSource(s.Seed)))
}

// ThroughputRequest is the body of POST /v1/throughput: evaluate a
// topology's per-server throughput in the fluid-flow model under a traffic
// matrix family — the interactive twin of cmd/throughput.
type ThroughputRequest struct {
	Topo TopoSpec `json:"topo"`
	// TM is the traffic matrix family: longest-matching (default),
	// permutation, or all-to-all.
	TM string `json:"tm,omitempty"`
	// X is the fraction of active racks (default 1).
	X float64 `json:"x,omitempty"`
	// Epsilon is the GK approximation parameter (default 0.08).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Seed drives workload randomness (active-rack choice, permutation
	// pairing); independent of Topo.Seed. Default 1.
	Seed int64 `json:"seed,omitempty"`

	// metrics, when set by the handler, receives GK solver telemetry.
	// Unexported, so it stays out of spec() and the cache key.
	metrics *Metrics
}

func (r *ThroughputRequest) normalize() error {
	if err := normalizeWorkload(&r.Topo, &r.TM, &r.X, &r.Seed); err != nil {
		return err
	}
	r.Epsilon = cmp.Or(r.Epsilon, 0.08)
	if r.Epsilon < 0.005 || r.Epsilon > 0.5 {
		return fmt.Errorf("epsilon=%g: need [0.005,0.5]", r.Epsilon)
	}
	return nil
}

// spec returns the canonical cache spec: the JSON encoding of the
// normalized request (struct field order is fixed, so the encoding is
// deterministic).
func (r *ThroughputRequest) spec() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("serve: encode throughput spec: %v", err)) // flat struct of scalars
	}
	return string(data)
}

// ThroughputResult is the response payload of /v1/throughput.
type ThroughputResult struct {
	Topology   string  `json:"topology"`
	Switches   int     `json:"switches"`
	Servers    int     `json:"servers"`
	TMName     string  `json:"tm"`
	Racks      int     `json:"racks"`
	Throughput float64 `json:"throughput"`  // per-server, clamped to 1
	UpperBound float64 `json:"upper_bound"` // GK dual bound (also clamped)
	Phases     int     `json:"phases"`
	Epsilon    float64 `json:"epsilon"`
}

// run computes the query. ctx cancellation propagates into the GK solver
// at phase granularity; a canceled run returns ctx.Err() rather than a
// partial result. A span in ctx (traced requests) gets build/solve children
// with the solver's phase and iteration counts as attributes.
func (r *ThroughputRequest) run(ctx context.Context) (json.RawMessage, error) {
	sp := obs.SpanFromContext(ctx)
	buildSp := sp.Child("build-topology")
	t, err := buildTopo(&r.Topo)
	buildSp.End()
	if err != nil {
		return nil, err
	}
	m, racks, err := workload.FluidTM(t, r.TM, r.X, r.Topo.ConsecutiveRacks(), rand.New(rand.NewSource(r.Seed)))
	if err != nil {
		return nil, err
	}
	nw := fluid.NewNetwork(t.G, 1.0)
	gkSp := sp.Child("gk-solve")
	var tel fluid.GKTelemetry
	res := fluid.MaxConcurrentFlow(nw, fluid.Commodities(m), fluid.GKOptions{
		Epsilon:  r.Epsilon,
		Workers:  graph.Parallelism(),
		Ctx:      ctx,
		Observer: &tel,
	})
	gkSp.SetAttr("phases", float64(tel.Phases))
	gkSp.SetAttr("iterations", float64(tel.Iterations))
	gkSp.SetAttr("dual_bound", tel.Dual)
	gkSp.End()
	if r.metrics != nil {
		r.metrics.GKSolves.Add(1)
		r.metrics.GKPhases.Add(int64(tel.Phases))
		r.metrics.GKIterations.Add(int64(tel.Iterations))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := ThroughputResult{
		Topology:   t.Name,
		Switches:   t.NumSwitches(),
		Servers:    t.TotalServers(),
		TMName:     m.Name,
		Racks:      len(racks),
		Throughput: min(res.Throughput, 1),
		UpperBound: min(res.UpperBound, 1),
		Phases:     res.Phases,
		Epsilon:    r.Epsilon,
	}
	return json.Marshal(&out)
}

// PathStatsRequest is the body of POST /v1/pathstats: structural
// shortest-path statistics of a topology's switch graph.
type PathStatsRequest struct {
	Topo TopoSpec `json:"topo"`
}

func (r *PathStatsRequest) normalize() error { return normalizeTopo(&r.Topo) }

func (r *PathStatsRequest) spec() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("serve: encode pathstats spec: %v", err))
	}
	return string(data)
}

// PathStatsResult is the response payload of /v1/pathstats. Mean is -1
// when the graph is disconnected (JSON has no NaN).
type PathStatsResult struct {
	Topology  string  `json:"topology"`
	Switches  int     `json:"switches"`
	Servers   int     `json:"servers"`
	Connected bool    `json:"connected"`
	Diameter  int     `json:"diameter"`
	Mean      float64 `json:"mean_shortest_path"`
}

func (r *PathStatsRequest) run(ctx context.Context) (json.RawMessage, error) {
	t, err := buildTopo(&r.Topo)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps := t.G.PathStats()
	out := PathStatsResult{
		Topology:  t.Name,
		Switches:  t.NumSwitches(),
		Servers:   t.TotalServers(),
		Connected: ps.Connected,
		Diameter:  ps.Diameter,
		Mean:      ps.Mean,
	}
	if !ps.Connected {
		out.Diameter, out.Mean = -1, -1
	}
	return json.Marshal(&out)
}
