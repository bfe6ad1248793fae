package topology

import (
	"math/rand"
	"testing"
)

// goldenBuilds pins the content hash of every topology kind at its default
// parameters (the daemon's defaults; topogen's for dragonfly, lps and the
// 77%-cost fat-tree), built by the direct constructor call from a
// rand.NewSource(1) stream. Any construction refactor must reproduce these
// instances exactly.
var goldenBuilds = []struct {
	name   string
	direct func(rng *rand.Rand) *Topology
	hash   string
}{
	{"fattree", func(*rand.Rand) *Topology { return &NewFatTree(8).Topology }, "e8a09c703c4641ad9c39efde1f338d128b73b630f7a578f59bfcf5464afd8d90"},
	{"fattree77", func(*rand.Rand) *Topology { return &NewFatTreeAtCost(16, 0.77).Topology }, "6b4a8846d8a8cf2c29036952d75b6663b0332ad6cae06c5993a1d855bd8c2ef7"},
	{"jellyfish", func(rng *rand.Rand) *Topology { return NewJellyfish(54, 9, 6, rng) }, "83f71d9627959ad5522bff3e2e669f03fca415a4ecc447b98d82d5f544ab7338"},
	{"xpander", func(rng *rand.Rand) *Topology { return &NewXpander(9, 9, 6, rng).Topology }, "e20bec79c541095806dc56f21c85247b380e3aabe86666f899bc2fd180764e8f"},
	{"slimfly", func(*rand.Rand) *Topology { return &NewSlimFly(5, 6).Topology }, "90653f1c09549a8f84dde091c561c03384b9155cea4e07f3044acecddf70ad0a"},
	{"longhop", func(*rand.Rand) *Topology { return &NewLonghop(6, 9, 6).Topology }, "366063fae602a6da4e0f91e274169f30e86f3fabfb1dd39a342cff12b1c3ffa4"},
	{"dragonfly", func(*rand.Rand) *Topology { return &NewDragonFly(4, 2, 5).Topology }, "0263bf09ac53f225702dff46dc38c453b86c867d568602bc311676481d05deb0"},
	{"lps", func(*rand.Rand) *Topology { return &NewLPS(5, 13, 5).Topology }, "c67db96d3b9da0fb3e73dafabbf25d8ae89c76df57d7e3a55f49e7d85cb24881"},
}

func TestGoldenBuildHashes(t *testing.T) {
	for _, g := range goldenBuilds {
		got := DesignOf(g.direct(rand.New(rand.NewSource(1)))).Hash()
		if got != g.hash {
			t.Errorf("%s: hash %s, golden %s", g.name, got, g.hash)
		}
	}
}
