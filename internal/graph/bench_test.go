package graph

import (
	"math/rand"
	"testing"
)

// randomRegular builds a d-regular multigraph on n nodes from d random
// perfect matchings (the configuration-model flavour Jellyfish sweeps use;
// parallel edges simply accumulate multiplicity).
func randomRegular(n, d int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for round := 0; round < d; round++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i+1 < n; i += 2 {
			if perm[i] != perm[i+1] {
				g.AddEdge(perm[i], perm[i+1])
			}
		}
	}
	return g
}

// BenchmarkAPSP is the kernel benchmark for all-pairs BFS on a 1024-node
// random regular graph, serial (1 worker) vs the full pool. Its history is
// in BENCH_pr2–7.json.
func BenchmarkAPSP(b *testing.B) {
	g := randomRegular(1024, 8, rand.New(rand.NewSource(1)))
	g.Frozen() // build outside the timed region: the kernel is the target
	defer SetParallelism(0)
	b.Run("serial", func(b *testing.B) {
		SetParallelism(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.APSP()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		SetParallelism(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.APSP()
		}
	})
	// The pre-CSR implementation (repeated BFS over adjacency maps), kept as
	// a benchmark-only reference so the trajectory shows the map→CSR gain.
	b.Run("legacy-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dist := make([][]int, g.N())
			for u := 0; u < g.N(); u++ {
				dist[u] = mapBFS(g, u)
			}
		}
	})
}

// BenchmarkPathStats measures the fused diameter+mean sweep (what topogen
// runs) against the two-pass equivalent.
func BenchmarkPathStats(b *testing.B) {
	g := randomRegular(1024, 8, rand.New(rand.NewSource(2)))
	g.Frozen()
	defer SetParallelism(0)
	b.Run("fused", func(b *testing.B) {
		SetParallelism(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ps := g.PathStats(); !ps.Connected {
				b.Fatal("disconnected")
			}
		}
	})
	b.Run("two-pass", func(b *testing.B) {
		SetParallelism(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.Diameter() < 0 {
				b.Fatal("disconnected")
			}
			g.AvgShortestPath()
		}
	})
}

// BenchmarkBFS measures one flat-array BFS (the unit of every kernel above).
func BenchmarkBFS(b *testing.B) {
	g := randomRegular(4096, 8, rand.New(rand.NewSource(3)))
	c := g.Frozen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BFS(i % c.N())
	}
}

// BenchmarkDijkstra covers the shared-minheap weighted kernel used by Yen's
// algorithm and (in arc form) the GK solver.
func BenchmarkDijkstra(b *testing.B) {
	g := randomRegular(1024, 8, rand.New(rand.NewSource(4)))
	w := func(u, v int) float64 { return 1.0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i%g.N(), w)
	}
}
