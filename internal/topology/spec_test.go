package topology

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSpecRejectsBadInput pins inputs on which a constructor would panic or
// never return: each must be a Validate error, and Build must return that
// error instead of calling the constructor.
func TestSpecRejectsBadInput(t *testing.T) {
	rows := []struct {
		spec Spec
		want string // substring of the error; "" = valid
	}{
		// throughput -topo jellyfish -n 13 -degree 3: odd n·degree
		{Spec{Kind: "jellyfish", N: 13, Degree: 3, Servers: 6}, "n·degree even"},
		// throughput -topo jellyfish -n 4 -degree 1: a retry loop without end
		{Spec{Kind: "jellyfish", N: 4, Degree: 1, Servers: 6}, "2 <= degree < n, n·degree even"},
		{Spec{Kind: "jellyfish", N: 4, Degree: 4, Servers: 6}, "2 <= degree < n, n·degree even"},
		{Spec{Kind: "jellyfish", N: 4, Degree: 2, Servers: 6}, ""},
		{Spec{Kind: "jellyfish", N: 4, Degree: 2, Servers: -1}, "servers=-1"},
		// throughput -topo slimfly -q 4
		{Spec{Kind: "slimfly", Q: 4, Servers: 6}, "prime ≡ 1 (mod 4)"},
		{Spec{Kind: "slimfly", Q: 7, Servers: 6}, "prime ≡ 1 (mod 4)"},
		{Spec{Kind: "slimfly", Q: 1 << 40, Servers: 6}, "2q² <="},
		{Spec{Kind: "slimfly", Q: -(1 << 40), Servers: 6}, "prime ≡ 1 (mod 4)"},
		{Spec{Kind: "slimfly", Q: 5, Servers: 6}, ""},
		// whatif -topo fattree -k 3, pktsim -topo fattree -k 5
		{Spec{Kind: "fattree", K: 3}, "even k"},
		{Spec{Kind: "fattree", K: 5, Cost: 0.77}, "even k"},
		{Spec{Kind: "fattree", K: 0}, "even k"},
		{Spec{Kind: "fattree", K: 4, Servers: -3}, ""}, // fat-trees ignore Servers
		// search -topo xpander -degree 1
		{Spec{Kind: "xpander", Degree: 1, Lift: 4, Servers: 3}, "degree in [2,"},
		{Spec{Kind: "xpander", Degree: 2, Lift: 0, Servers: 3}, "lift >= 1"},
		{Spec{Kind: "xpander", Degree: 2, Lift: 1, Servers: 3}, ""},
		{Spec{Kind: "xpander", Degree: 1 << 30, Lift: 4, Servers: 3}, "switches >"},
		{Spec{Kind: "xpander", Degree: math.MaxInt, Lift: 1, Servers: 3}, "degree in [2,"},
		{Spec{Kind: "fattree", K: 1 << 40, Cost: 0.5}, "switches >"},
		{Spec{Kind: "dragonfly", A: math.MaxInt, H: math.MaxInt}, "a, h in [1,"},
		{Spec{Kind: "dragonfly", A: 1 << 20, H: 1 << 20}, "switches >"},
		{Spec{Kind: "longhop", Dim: 1, Degree: 1}, "dim in [2,20]"},
		{Spec{Kind: "longhop", Dim: 21, Degree: 30}, "dim in [2,20]"},
		{Spec{Kind: "longhop", Dim: 4, Degree: 16}, "2^dim"},
		{Spec{Kind: "longhop", Dim: 4, Degree: 3}, "2^dim"},
		{Spec{Kind: "dragonfly", A: 0, H: 2}, "a, h in [1,"},
		{Spec{Kind: "dragonfly", A: 2, H: 2, Servers: -1}, "servers=-1"},
		{Spec{Kind: "lps", P: 13, Q: 5}, "q > 2√p"},
		{Spec{Kind: "lps", P: 5, Q: 5}, "distinct primes ≡ 1 (mod 4)"},
		{Spec{Kind: "lps", P: 3, Q: 13}, "distinct primes ≡ 1 (mod 4)"},
		{Spec{Kind: "lps", P: 5, Q: 13}, ""},
		{Spec{Kind: "design"}, "name required"},
		{Spec{Kind: "design", Name: "no-such-design"}, "not registered"},
		{Spec{Kind: "fattree77", K: 8}, "unknown topology kind"},
		{Spec{}, "unknown topology kind"},
	}
	for _, row := range rows {
		err := row.spec.Validate()
		_, berr := row.spec.Build(rand.New(rand.NewSource(1)))
		if row.want == "" {
			if err != nil || berr != nil {
				t.Errorf("%+v: Validate %v, Build %v; want valid", row.spec, err, berr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%+v: Validate %v, want error containing %q", row.spec, err, row.want)
		}
		if berr == nil || berr.Error() != err.Error() {
			t.Errorf("%+v: Build error %v, want the Validate error", row.spec, berr)
		}
	}
}

// TestSpecBuildMatchesGolden: for every kind at its default parameters,
// Spec.Build yields exactly the instance of the direct constructor call.
func TestSpecBuildMatchesGolden(t *testing.T) {
	specs := map[string]Spec{
		"fattree":   {Kind: "fattree"},
		"fattree77": {Kind: "fattree", K: 16, Cost: 0.77},
		"jellyfish": {Kind: "jellyfish"},
		"xpander":   {Kind: "xpander"},
		"slimfly":   {Kind: "slimfly"},
		"longhop":   {Kind: "longhop"},
		"dragonfly": {Kind: "dragonfly", A: 4, H: 2, Servers: 5},
		"lps":       {Kind: "lps", P: 5, Q: 13, Servers: 5},
	}
	for _, g := range goldenBuilds {
		s, ok := specs[g.name]
		if !ok {
			t.Fatalf("no spec for golden %s", g.name)
		}
		if s.Kind != "dragonfly" && s.Kind != "lps" && s.Cost == 0 {
			if err := s.Normalize(); err != nil { // the daemon's defaults
				t.Fatal(err)
			}
		}
		topo, err := s.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := DesignOf(topo).Hash(); got != g.hash {
			t.Errorf("%s: Spec.Build hash %s, golden %s", g.name, got, g.hash)
		}
	}
}

// TestCoreAtCostMatchesBuiltTrees checks the closed-form port count behind
// NewFatTreeAtCost against the cost fraction of the built trees.
func TestCoreAtCostMatchesBuiltTrees(t *testing.T) {
	for k := 2; k <= 20; k += 2 {
		for _, frac := range []float64{-1, 0, 0.3, 0.5, 0.6, 0.7, 0.77, 0.8, 0.9, 0.95, 1, 2} {
			want := 1
			for c := 1; c <= k/2; c++ {
				if NewFatTreeOversubscribed(k, c).CostFraction() <= frac {
					want = c
				}
			}
			if got := coreAtCost(k, frac); got != want {
				t.Errorf("k=%d cost=%g: core %d, built trees pick %d", k, frac, got, want)
			}
		}
	}
}

func TestJellyfishPanicsOnDisconnectedDegreeOne(t *testing.T) {
	if g := NewJellyfish(2, 1, 1, rand.New(rand.NewSource(1))); g.NumSwitches() != 2 {
		t.Fatalf("n=2 r=1: %d switches", g.NumSwitches())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewJellyfish(4, 1) returned; want a panic, not an endless retry loop")
		}
	}()
	NewJellyfish(4, 1, 1, rand.New(rand.NewSource(1)))
}

func TestSpecWithin(t *testing.T) {
	l := Limits{MaxSwitches: 100, MaxServers: 4, MaxFatTreeK: 6, MinXpanderLift: 2}
	rows := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Kind: "jellyfish", N: 100, Degree: 4, Servers: 4}, true},
		{Spec{Kind: "jellyfish", N: 101, Degree: 4, Servers: 4}, false},
		{Spec{Kind: "jellyfish", N: 10, Degree: 4, Servers: 5}, false},
		{Spec{Kind: "fattree", K: 6}, true},
		{Spec{Kind: "fattree", K: 8}, false},
		{Spec{Kind: "xpander", Degree: 3, Lift: 2}, true},
		{Spec{Kind: "xpander", Degree: 3, Lift: 1}, false},
		{Spec{Kind: "longhop", Dim: 6, Degree: 6}, true},
		{Spec{Kind: "longhop", Dim: 7, Degree: 7}, false},
	}
	for _, row := range rows {
		if err := row.spec.Within(l); (err == nil) != row.ok {
			t.Errorf("%+v: Within = %v, want ok=%v", row.spec, err, row.ok)
		}
	}
}

// FuzzSpec drives every kind with small bounded parameters (negatives
// included): Validate and Build never panic, Build succeeds exactly when
// Validate does and yields a valid topology of the advertised size, and a
// normalized spec survives a JSON round trip unchanged.
func FuzzSpec(f *testing.F) {
	d := DesignOf(NewJellyfish(8, 3, 1, rand.New(rand.NewSource(2))))
	d.Name = "fuzz-spec-design"
	if err := RegisterDesign(d); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), int8(8), int8(0), int8(0), int8(2), uint8(0), int64(1))   // fattree k=8
	f.Add(uint8(0), int8(8), int8(0), int8(0), int8(2), uint8(154), int64(1)) // fattree at 77%
	f.Add(uint8(1), int8(13), int8(3), int8(0), int8(2), uint8(0), int64(1))  // jellyfish odd n·r
	f.Add(uint8(1), int8(4), int8(1), int8(0), int8(2), uint8(0), int64(1))   // jellyfish r=1
	f.Add(uint8(1), int8(12), int8(4), int8(0), int8(2), uint8(0), int64(3))  // jellyfish
	f.Add(uint8(2), int8(0), int8(1), int8(4), int8(3), uint8(0), int64(1))   // xpander degree 1
	f.Add(uint8(2), int8(0), int8(3), int8(4), int8(3), uint8(0), int64(5))   // xpander
	f.Add(uint8(3), int8(0), int8(0), int8(4), int8(2), uint8(0), int64(1))   // slimfly q=4
	f.Add(uint8(3), int8(0), int8(0), int8(5), int8(2), uint8(0), int64(1))   // slimfly q=5
	f.Add(uint8(4), int8(5), int8(6), int8(0), int8(1), uint8(0), int64(1))   // longhop
	f.Add(uint8(5), int8(3), int8(2), int8(0), int8(1), uint8(0), int64(1))   // dragonfly
	f.Add(uint8(6), int8(0), int8(5), int8(13), int8(1), uint8(0), int64(1))  // lps
	f.Add(uint8(7), int8(1), int8(0), int8(0), int8(0), uint8(0), int64(1))   // design
	f.Add(uint8(8), int8(0), int8(0), int8(0), int8(0), uint8(0), int64(1))   // no kind
	kinds := []string{"fattree", "jellyfish", "xpander", "slimfly", "longhop", "dragonfly", "lps", "design", "", "fattree77"}
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c, srv int8, cost uint8, seed int64) {
		s := Spec{
			Kind:    kinds[int(kind)%len(kinds)],
			K:       int(a) % 24,
			N:       int(a) % 41,
			Degree:  int(b) % 12,
			Lift:    int(c) % 8,
			Servers: int(srv) % 7,
			Q:       int(c) % 30,
			Dim:     int(a) % 11,
			Seed:    seed,
			Cost:    float64(cost) / 200,
			A:       int(a) % 7,
			H:       int(b) % 5,
			P:       int(b) % 30,
		}
		if a%2 != 0 {
			s.Name = d.Name
		}
		if s.Kind == "lps" {
			s.Q %= 18 // keep q³-sized Cayley graphs cheap
		}

		verr := s.Validate()
		topo, berr := s.Build(rand.New(rand.NewSource(seed)))
		if (verr == nil) != (berr == nil) {
			t.Fatalf("%+v: Validate %v but Build %v", s, verr, berr)
		}
		if berr == nil {
			if err := topo.Validate(); err != nil {
				t.Fatalf("%+v: built an invalid topology: %v", s, err)
			}
			if want := expectedSwitches(s); topo.NumSwitches() != want || s.Switches() != want {
				t.Fatalf("%+v: %d switches (Switches() says %d), want %d", s, topo.NumSwitches(), s.Switches(), want)
			}
		}

		n := s
		if n.Normalize() != nil {
			return
		}
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("%s: normalized spec fails to re-normalize: %v", data, err)
		}
		if back != n {
			t.Fatalf("round trip changed the spec:\n %+v\n %+v", n, back)
		}
	})
}

// expectedSwitches is each kind's switch count from its parameters,
// written out independently of Spec.Switches where a closed form exists.
func expectedSwitches(s Spec) int {
	switch s.Kind {
	case "fattree":
		if s.Cost != 0 && s.Cost < 1 {
			return NewFatTreeAtCost(s.K, s.Cost).NumSwitches()
		}
		return 5 * s.K * s.K / 4
	case "jellyfish":
		return s.N
	case "xpander":
		return (s.Degree + 1) * s.Lift
	case "slimfly":
		return 2 * s.Q * s.Q
	case "longhop":
		return 1 << s.Dim
	case "dragonfly":
		return (s.A*s.H + 1) * s.A
	case "lps":
		// |PSL(2,q)| = q(q²-1)/2 when p is a square mod q, else |PGL(2,q)|.
		order := s.Q * (s.Q*s.Q - 1)
		for x := 1; x < s.Q; x++ {
			if x*x%s.Q == s.P%s.Q {
				return order / 2
			}
		}
		return order
	default: // design
		d, _ := LookupDesign(s.Name)
		return len(d.Servers)
	}
}
