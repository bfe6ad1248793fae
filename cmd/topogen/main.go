// Command topogen builds any of the repository's topologies and prints its
// structural properties: sizes, degree, diameter, average shortest path,
// spectral gap, and port/cost accounting.
//
// Examples:
//
//	topogen -topo fattree -k 16
//	topogen -topo xpander -degree 11 -lift 18 -servers 5
//	topogen -topo jellyfish -n 216 -degree 11 -servers 5
//	topogen -topo slimfly -q 17 -servers 24
//	topogen -topo longhop -dim 9 -degree 10 -servers 8
//	topogen -topo fattree -k 16 -cost 0.77
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"beyondft/internal/cost"
	"beyondft/internal/topology"
)

func main() {
	kind := flag.String("topo", "fattree", "fattree | jellyfish | xpander | slimfly | longhop | dragonfly | lps")
	k := flag.Int("k", 16, "fat-tree k")
	costFrac := flag.Float64("cost", 1.0, "fat-tree: build at this fraction of full cost")
	n := flag.Int("n", 216, "jellyfish: switch count")
	degree := flag.Int("degree", 11, "network degree (jellyfish/xpander/longhop)")
	lift := flag.Int("lift", 18, "xpander: switches per meta-node")
	servers := flag.Int("servers", 5, "servers per switch")
	q := flag.Int("q", 17, "slimfly: prime q = 1 mod 4")
	dim := flag.Int("dim", 9, "longhop: dimension (2^dim switches)")
	dfA := flag.Int("a", 4, "dragonfly: routers per group")
	dfH := flag.Int("h", 2, "dragonfly: global links per router")
	lpsP := flag.Int("p", 5, "lps: generator prime p (p+1 = degree)")
	lpsQ := flag.Int("lpsq", 13, "lps: field prime q")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	spec := topology.Spec{Kind: *kind, K: *k, Cost: *costFrac, N: *n, Degree: *degree, Lift: *lift,
		Servers: *servers, Q: *q, Dim: *dim, A: *dfA, H: *dfH, P: *lpsP}
	if *kind == "lps" {
		spec.Q = *lpsQ
	}
	t, note, err := spec.BuildNoted(rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
	if note != "" {
		fmt.Println(note)
	}
	if err := t.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "invalid topology: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("name:            %s\n", t.Name)
	fmt.Printf("switches:        %d\n", t.NumSwitches())
	fmt.Printf("servers:         %d\n", t.TotalServers())
	fmt.Printf("cables:          %d\n", t.Cables())
	fmt.Printf("ports (network): %d\n", t.NetworkPorts())
	fmt.Printf("ports (total):   %d\n", t.TotalPortsUsed())
	fmt.Printf("port cost:       $%.0f (static, Table 1 prices)\n",
		float64(t.TotalPortsUsed())*cost.StaticPortDollars())
	if d, ok := t.G.IsRegular(); ok {
		fmt.Printf("network degree:  %d (regular)\n", d)
		l2 := t.G.SecondEigenvalue(200, rng)
		fmt.Printf("lambda2:         %.3f (Ramanujan bound 2*sqrt(d-1) = %.3f)\n",
			l2, 2*math.Sqrt(float64(d-1)))
	}
	ps := t.G.PathStats() // one parallel APSP sweep covers both rows
	fmt.Printf("diameter:        %d\n", ps.Diameter)
	fmt.Printf("avg path:        %.3f hops\n", ps.Mean)
}
