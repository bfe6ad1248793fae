package fluid

import (
	"math/rand"
	"testing"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// BenchmarkMaxConcurrentFlow is the GK-solver benchmark (history in
// BENCH_pr2–7.json): a Jellyfish at laptop scale under a longest-matching TM,
// the paper's workhorse evaluation. It exercises the incremental D(l)
// bookkeeping, the parallel per-source dual-bound distances, and the
// early-terminating Dijkstra on the routing path.
// benchGKOptions lives at package scope so the compiler cannot prove
// Observer is nil and fold the guard away: the benchmark below measures
// the real hot-path sequence — interface nil check per phase, integer
// increment per routing iteration.
var benchGKOptions GKOptions

// BenchmarkGKObserverDisabled times the observability layer's
// zero-overhead contract: with a nil GKObserver, the hook the GK hot loop
// executes costs 0 allocs/op (enforced by TestGKObserverDisabledAllocFree).
func BenchmarkGKObserverDisabled(b *testing.B) {
	iters := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if benchGKOptions.Observer != nil {
			benchGKOptions.Observer.GKPhase(i, iters, 0.5, 1.0)
		}
		iters++
		if benchGKOptions.Observer != nil {
			benchGKOptions.Observer.GKDone(i, iters, 0.5, 1.0)
		}
	}
	if iters != b.N {
		b.Fatal("loop elided")
	}
}

func BenchmarkMaxConcurrentFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	jf := topology.NewJellyfish(64, 8, 6, rng)
	var racks []int
	for r := 0; r < jf.G.N(); r += 2 {
		racks = append(racks, r)
	}
	m := tm.LongestMatching(jf.G, racks, tm.Uniform(6))
	nw := NewNetwork(jf.G, 1.0)
	comms := Commodities(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.1})
		if res.Throughput <= 0 {
			b.Fatal("zero throughput")
		}
	}
}
