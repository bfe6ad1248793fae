package workload

import (
	"fmt"
	"math/rand"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// CheckFluidTM reports whether name is one of the traffic-matrix families
// the fluid-model tools evaluate.
func CheckFluidTM(name string) error {
	switch name {
	case "longest-matching", "permutation", "all-to-all":
		return nil
	}
	return fmt.Errorf("unknown tm %q (want longest-matching|permutation|all-to-all)", name)
}

// FluidTM builds the named traffic matrix over an x fraction of t's racks
// (ActiveRacks; consecutive racks for fat-trees) and checks it against the
// hose model. A permutation needs an even rack count, so an odd one loses
// its last rack. It returns the racks the matrix spans. rng supplies the
// random rack choice and then the permutation pairing, in that order.
func FluidTM(t *topology.Topology, name string, x float64, consecutive bool, rng *rand.Rand) (*tm.TM, []int, error) {
	if err := CheckFluidTM(name); err != nil {
		return nil, nil, err
	}
	racks := ActiveRacks(t, x, consecutive, rng)
	serversOf := func(r int) int { return t.Servers[r] }
	var m *tm.TM
	switch name {
	case "longest-matching":
		m = tm.LongestMatching(t.G, racks, serversOf)
	case "permutation":
		if len(racks)%2 == 1 {
			racks = racks[:len(racks)-1]
		}
		m = tm.RandomPermutation(racks, serversOf, rng)
	default: // "all-to-all"
		m = tm.AllToAll(racks, serversOf)
	}
	if err := m.ValidateHose(serversOf); err != nil {
		return nil, nil, fmt.Errorf("traffic matrix violates hose model: %w", err)
	}
	return m, racks, nil
}
