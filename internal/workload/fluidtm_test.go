package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

func TestFluidTM(t *testing.T) {
	jf := topology.NewJellyfish(11, 4, 2, rand.New(rand.NewSource(1)))
	serversOf := func(r int) int { return jf.Servers[r] }

	// Same draws as composing the pieces by hand: random racks first, then
	// the permutation pairing; 11 racks lose one for the permutation.
	m, racks, err := FluidTM(jf, "permutation", 1, false, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	want := ActiveRacks(jf, 1, false, rng)[:10]
	wantTM := tm.RandomPermutation(want, serversOf, rng)
	if !reflect.DeepEqual(racks, want) || !reflect.DeepEqual(m, wantTM) {
		t.Fatalf("permutation: racks %v, want %v", racks, want)
	}

	for _, name := range []string{"longest-matching", "all-to-all"} {
		m, racks, err := FluidTM(jf, name, 0.5, true, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(racks) != 6 || racks[0] != 0 || racks[5] != 5 {
			t.Fatalf("%s: consecutive racks %v, want 0..5", name, racks)
		}
		if len(m.Demands) == 0 {
			t.Fatalf("%s: empty traffic matrix", name)
		}
	}

	if _, _, err := FluidTM(jf, "uniform", 1, false, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown tm accepted")
	}
}
