package topology

import (
	"fmt"
	"math/rand"

	"beyondft/internal/graph"
)

// NewJellyfish builds a Jellyfish network (Singla et al., NSDI'12): a random
// r-regular graph among n switches, each additionally carrying
// serversPerSwitch servers. The construction follows the paper: repeatedly
// link random switch pairs that both have free ports and are not yet
// adjacent; when blocked, break a random existing edge to free ports.
//
// n*r must be even, and r = 1 only for n = 2 (a larger 1-regular graph is a
// disconnected matching). The result is simple (no parallel links) and
// connected.
func NewJellyfish(n, r, serversPerSwitch int, rng *rand.Rand) *Topology {
	if n < 2 || r < 1 {
		panic(fmt.Sprintf("jellyfish: invalid n=%d r=%d", n, r))
	}
	if r >= n {
		panic(fmt.Sprintf("jellyfish: degree r=%d must be < n=%d for a simple graph", r, n))
	}
	if n*r%2 != 0 {
		panic(fmt.Sprintf("jellyfish: n*r=%d must be even", n*r))
	}
	if r == 1 && n > 2 {
		panic(fmt.Sprintf("jellyfish: a 1-regular graph on n=%d > 2 switches is never connected", n))
	}
	for {
		g := buildRandomRegular(n, r, rng)
		if g != nil && g.Connected() {
			servers := make([]int, n)
			for i := range servers {
				servers[i] = serversPerSwitch
			}
			return &Topology{
				Name:        fmt.Sprintf("jellyfish-n%d-r%d", n, r),
				G:           g,
				Servers:     servers,
				SwitchPorts: r + serversPerSwitch,
			}
		}
	}
}

// NewJellyfishForServers builds a Jellyfish from n switches of `ports` ports
// each that must host totalServers servers: servers are spread as evenly as
// possible and each switch devotes its remaining ports to the random
// network. Used for the paper's equal-cost comparisons where server counts
// do not divide evenly (e.g. Fig. 6's "50% fat" configuration).
func NewJellyfishForServers(n, ports, totalServers int, rng *rand.Rand) *Topology {
	if n < 2 || totalServers < 0 || totalServers > n*(ports-1) {
		panic(fmt.Sprintf("jellyfish: cannot host %d servers on %d switches of %d ports",
			totalServers, n, ports))
	}
	servers := make([]int, n)
	base, extra := totalServers/n, totalServers%n
	degrees := make([]int, n)
	degSum := 0
	for i := range servers {
		servers[i] = base
		if i < extra {
			servers[i]++
		}
		degrees[i] = ports - servers[i]
		degSum += degrees[i]
	}
	if degSum%2 != 0 {
		// Give one switch one fewer network port (left idle) to even parity.
		for i := range degrees {
			if degrees[i] > 1 {
				degrees[i]--
				break
			}
		}
	}
	for {
		g := buildRandomDegreeSequence(degrees, rng)
		if g != nil && g.Connected() {
			return &Topology{
				Name:        fmt.Sprintf("jellyfish-n%d-p%d-s%d", n, ports, totalServers),
				G:           g,
				Servers:     servers,
				SwitchPorts: ports,
			}
		}
	}
}

// buildRandomRegular attempts one construction of a simple r-regular graph;
// returns nil on (rare) failure so the caller can retry.
func buildRandomRegular(n, r int, rng *rand.Rand) *graph.Graph {
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = r
	}
	return buildRandomDegreeSequence(degrees, rng)
}

// buildRandomDegreeSequence attempts one construction of a simple graph with
// the given degree sequence via the Jellyfish link-and-repair process;
// returns nil on failure so the caller can retry.
func buildRandomDegreeSequence(degrees []int, rng *rand.Rand) *graph.Graph {
	n := len(degrees)
	r := 0
	g := graph.New(n)
	free := make([]int, n) // remaining free ports per switch
	for i := range free {
		free[i] = degrees[i]
		if degrees[i] > r {
			r = degrees[i]
		}
	}
	open := make([]int, 0, n) // switches with free ports
	// Rebuilt from free[] each round: the fix-up below can return a port to a
	// switch that already left the worklist, so filtering the previous slice
	// would strand that port and yield an under-degree graph.
	compact := func() {
		open = open[:0]
		for i := 0; i < n; i++ {
			if free[i] > 0 {
				open = append(open, i)
			}
		}
	}
	stuckRounds := 0
	for {
		compact()
		if len(open) == 0 {
			return g
		}
		// Try to link two random distinct, non-adjacent open switches.
		linked := false
		for attempt := 0; attempt < 32; attempt++ {
			u := open[rng.Intn(len(open))]
			v := open[rng.Intn(len(open))]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.AddEdge(u, v)
			free[u]--
			free[v]--
			linked = true
			break
		}
		if linked {
			stuckRounds = 0
			continue
		}
		// Blocked: the Jellyfish fix-up. Pick an open switch u with >= 1
		// free port and a random existing edge (a,b) with a,b not adjacent
		// to u; replace (a,b) with (u,a) and (u,b) — or if u has only one
		// free port left, pair u with a via breaking (a,b) and leave b open.
		stuckRounds++
		if stuckRounds > 4*n*r {
			return nil // give up this attempt; caller retries
		}
		u := open[rng.Intn(len(open))]
		edges := g.Edges()
		if len(edges) == 0 {
			return nil
		}
		e := edges[rng.Intn(len(edges))]
		a, b := e.U, e.V
		if a == u || b == u || g.HasEdge(u, a) || g.HasEdge(u, b) {
			continue
		}
		g.RemoveEdge(a, b)
		if free[u] >= 2 {
			g.AddEdge(u, a)
			g.AddEdge(u, b)
			free[u] -= 2
		} else {
			g.AddEdge(u, a)
			free[u]--
			free[b]++
		}
	}
}

// NewJellyfishSameEquipment builds a Jellyfish from exactly the same switch
// inventory as an existing topology: same switch count, same per-switch port
// count, same total servers (spread as evenly as possible), with all
// remaining ports used for the random network. This is the "same-equipment
// Jellyfish" used throughout §5.
func NewJellyfishSameEquipment(t *Topology, rng *rand.Rand) *Topology {
	if t.SwitchPorts <= 0 {
		panic("jellyfish: source topology has heterogeneous switches")
	}
	n := t.NumSwitches()
	total := t.TotalServers()
	base := total / n
	extra := total % n
	if extra != 0 {
		// Keep switches homogeneous: require divisibility, as the paper's
		// configurations do.
		panic(fmt.Sprintf("jellyfish: %d servers do not divide evenly over %d switches", total, n))
	}
	r := t.SwitchPorts - base
	jf := NewJellyfish(n, r, base, rng)
	jf.Name = fmt.Sprintf("jellyfish-sameeq-%s", t.Name)
	return jf
}
