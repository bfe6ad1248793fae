package serve

import "testing"

// TestDaemonRejectsOverflowingSizes: a switch count that overflows int
// must not wrap below the size cap and reach the build, where it panics or
// exhausts memory.
func TestDaemonRejectsOverflowingSizes(t *testing.T) {
	for _, topo := range []TopoSpec{
		{Kind: "xpander", Degree: 1 << 62, Lift: 2},
		{Kind: "slimfly", Q: 3037000493}, // a prime ≡ 1 (mod 4); 2q² wraps negative
	} {
		req := PathStatsRequest{Topo: topo}
		if err := req.normalize(); err == nil {
			t.Errorf("%+v: accepted", topo)
		}
	}
}
