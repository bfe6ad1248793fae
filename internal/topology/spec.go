package topology

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
)

// Spec names one topology instance: a kind plus the constructor parameters
// that kind takes. It is the one place that decides which kinds exist and
// how each is validated and built; the CLIs, the query daemon, the design
// search and its experiment jobs all construct through it.
//
// The JSON encoding is the daemon's canonical request form, hashed into its
// result-cache keys, so field order and tags must not change. Parameters
// that only the CLIs take (the fat-tree cost fraction, dragonfly's a and h,
// LPS's p) stay out of the encoding: the daemon's strict decoder rejects
// them as unknown fields.
type Spec struct {
	Kind    string `json:"kind"`              // fattree | jellyfish | xpander | slimfly | longhop | dragonfly | lps | design
	K       int    `json:"k,omitempty"`       // fattree
	N       int    `json:"n,omitempty"`       // jellyfish: switch count
	Degree  int    `json:"degree,omitempty"`  // jellyfish / xpander / longhop
	Lift    int    `json:"lift,omitempty"`    // xpander
	Servers int    `json:"servers,omitempty"` // servers per switch (flat topologies)
	Q       int    `json:"q,omitempty"`       // slimfly; lps field prime
	Dim     int    `json:"dim,omitempty"`     // longhop
	Seed    int64  `json:"seed,omitempty"`    // randomized constructions (the daemon seeds Build's rng with it)

	// Name selects a registered design (kind "design") — e.g. a
	// search-found topology loaded via -designs.
	Name string `json:"name,omitempty"`
	// DesignHash is the design's content address, filled from the registry
	// by Normalize so cache entries key on content: re-registering
	// different bytes under the same name cannot alias a stale result.
	DesignHash string `json:"design_hash,omitempty"`

	Cost float64 `json:"-"` // fattree: build at this fraction of full cost (0 = full)
	A    int     `json:"-"` // dragonfly: routers per group
	H    int     `json:"-"` // dragonfly: global links per router
	P    int     `json:"-"` // lps: generator prime (degree p+1)
}

// maxSpecSwitches is the largest switch count a spec may describe: the
// routing kernels index switches with int32.
const maxSpecSwitches = math.MaxInt32

// Validate reports whether Build can construct the spec: exactly the
// constructors' preconditions, plus jellyfish degree >= 2 (a 1-regular graph
// on more than two switches is never connected, so the constructor's retry
// loop would not end), non-negative server counts, and a switch count that
// fits the routing kernels' int32 indices. Size policy — how large a
// topology a caller is willing to build — is the caller's business.
func (s Spec) Validate() error {
	switch s.Kind {
	case "design":
		if s.Name == "" {
			return fmt.Errorf("design: name required")
		}
		if _, ok := LookupDesign(s.Name); !ok {
			return fmt.Errorf("design %q not registered (known: %v; -designs loads a directory)", s.Name, DesignNames())
		}
		return nil
	case "fattree":
		if s.K < 2 || s.K%2 != 0 {
			return fmt.Errorf("fattree k=%d: need even k >= 2", s.K)
		}
	case "jellyfish":
		if s.Degree < 2 || s.Degree >= s.N || s.N*s.Degree%2 != 0 {
			return fmt.Errorf("jellyfish n=%d degree=%d: need 2 <= degree < n, n·degree even", s.N, s.Degree)
		}
	case "xpander":
		if s.Degree < 2 || s.Degree >= maxSpecSwitches || s.Lift < 1 {
			return fmt.Errorf("xpander degree=%d lift=%d: need degree in [2,%d), lift >= 1", s.Degree, s.Lift, maxSpecSwitches)
		}
	case "slimfly":
		// The size check comes first so a huge q costs no primality test.
		if s.Switches() > maxSpecSwitches {
			return fmt.Errorf("slimfly q=%d: need 2q² <= %d", s.Q, maxSpecSwitches)
		}
		if !isPrime(s.Q) || s.Q%4 != 1 {
			return fmt.Errorf("slimfly q=%d: need a prime ≡ 1 (mod 4)", s.Q)
		}
	case "longhop":
		if s.Dim < 2 || s.Dim > 20 || s.Degree < s.Dim || s.Degree >= 1<<s.Dim {
			return fmt.Errorf("longhop dim=%d degree=%d: need dim in [2,20], degree in [dim, 2^dim)", s.Dim, s.Degree)
		}
	case "dragonfly":
		if s.A < 1 || s.H < 1 || s.A > maxSpecSwitches || s.H > maxSpecSwitches {
			return fmt.Errorf("dragonfly a=%d h=%d: need a, h in [1,%d]", s.A, s.H, maxSpecSwitches)
		}
	case "lps":
		// Sizes first, so huge parameters cost no primality test.
		if s.Q < 2 || mul(s.Q, mul(s.Q, s.Q)) > maxSpecSwitches || s.P > (s.Q*s.Q-1)/4 ||
			!isPrime(s.P) || !isPrime(s.Q) || s.P == s.Q || s.P%4 != 1 || s.Q%4 != 1 {
			return fmt.Errorf("lps p=%d q=%d: need distinct primes ≡ 1 (mod 4), q > 2√p, q³ <= %d", s.P, s.Q, maxSpecSwitches)
		}
	default:
		return fmt.Errorf("unknown topology kind %q (want fattree|jellyfish|xpander|slimfly|longhop|dragonfly|lps|design)", s.Kind)
	}
	if s.Servers < 0 && s.Kind != "fattree" { // fat-trees fix their own server counts
		return fmt.Errorf("%s servers=%d: need >= 0", s.Kind, s.Servers)
	}
	if n := s.Switches(); n > maxSpecSwitches {
		return fmt.Errorf("%s: %d switches > %d", s.Kind, n, maxSpecSwitches)
	}
	return nil
}

// Build validates the spec and constructs the topology. Randomized kinds
// draw from rng, which the caller passes: a CLI that goes on to draw its
// workload from the same rng depends on this draw order.
func (s Spec) Build(rng *rand.Rand) (*Topology, error) {
	t, _, err := s.BuildNoted(rng)
	return t, err
}

// BuildNoted is Build plus a one-line, kind-specific description of the
// construction ("" for kinds without one), which topogen prints above its
// common report.
func (s Spec) BuildNoted(rng *rand.Rand) (*Topology, string, error) {
	if err := s.Validate(); err != nil {
		return nil, "", err
	}
	switch s.Kind {
	case "design":
		d, _ := LookupDesign(s.Name)
		t, err := d.Build()
		return t, "", err
	case "fattree":
		var ft *FatTree
		if s.Cost != 0 && s.Cost < 1 {
			ft = NewFatTreeAtCost(s.K, s.Cost)
		} else {
			ft = NewFatTree(s.K)
		}
		return &ft.Topology, fmt.Sprintf("fat-tree k=%d, core oversubscription %.2f", ft.K, ft.OversubscriptionRatio()), nil
	case "jellyfish":
		return NewJellyfish(s.N, s.Degree, s.Servers, rng), "", nil
	case "xpander":
		x := NewXpander(s.Degree, s.Lift, s.Servers, rng)
		return &x.Topology, fmt.Sprintf("xpander: %d meta-nodes x %d switches, %d cable bundles of %d cables",
			x.D+1, x.Lift, (x.D+1)*x.D/2, x.Lift), nil
	case "slimfly":
		return &NewSlimFly(s.Q, s.Servers).Topology, "", nil
	case "longhop":
		lh := NewLonghop(s.Dim, s.Degree, s.Servers)
		return &lh.Topology, fmt.Sprintf("longhop generators: %d (incl. %d unit vectors)", len(lh.Generators), lh.Dim), nil
	case "dragonfly":
		df := NewDragonFly(s.A, s.H, s.Servers)
		return &df.Topology, fmt.Sprintf("dragonfly: %d groups of %d routers", df.Groups(), df.A), nil
	default: // "lps"; Validate admits no other kind
		l := NewLPS(s.P, s.Q, s.Servers)
		group := "PSL"
		if l.OverPGL {
			group = "PGL"
		}
		return &l.Topology, fmt.Sprintf("lps: Ramanujan graph X^{%d,%d} over %s(2,%d)", l.P, l.Q, group, l.Q), nil
	}
}

// Switches returns the switch count Build yields, without building — so a
// caller can apply a size cap before paying for construction. Products
// saturate at math.MaxInt instead of wrapping; the result is meaningful
// only for specs whose parameters pass their per-kind bounds in Validate.
func (s Spec) Switches() int {
	switch s.Kind {
	case "design":
		if d, ok := LookupDesign(s.Name); ok {
			return len(d.Servers)
		}
	case "fattree":
		if s.K > 1<<16 { // beyond maxSpecSwitches; also bounds coreAtCost's search
			return math.MaxInt
		}
		half := s.K / 2
		core := half
		if s.Cost != 0 && s.Cost < 1 {
			core = coreAtCost(s.K, s.Cost)
		}
		return mul(s.K, s.K) + mul(half, core)
	case "jellyfish":
		return s.N
	case "xpander":
		return mul(s.Degree+1, s.Lift)
	case "slimfly":
		return mul(2, mul(s.Q, s.Q))
	case "longhop":
		return 1 << s.Dim
	case "dragonfly":
		return mul(mul(s.A, s.H)+1, s.A)
	case "lps":
		// PSL(2,q) when p is a quadratic residue mod q, else PGL(2,q).
		order := mul(s.Q, mul(s.Q, s.Q)-1)
		if powMod(s.P, (s.Q-1)/2, s.Q) == 1 {
			order /= 2
		}
		return order
	}
	return 0
}

// Limits is a size policy on top of structural validity: how large a
// topology a caller is willing to build.
type Limits struct {
	MaxSwitches    int // total switch count
	MaxServers     int // servers per switch
	MaxFatTreeK    int // fat-tree switch radix
	MinXpanderLift int // xpander switches per meta-node
}

// Within checks a valid spec against a size policy.
func (s Spec) Within(l Limits) error {
	if n := s.Switches(); n > l.MaxSwitches {
		return fmt.Errorf("%s: %d switches > limit %d", s.Kind, n, l.MaxSwitches)
	}
	if s.Servers > l.MaxServers {
		return fmt.Errorf("servers=%d: need [0,%d]", s.Servers, l.MaxServers)
	}
	if s.Kind == "fattree" && s.K > l.MaxFatTreeK {
		return fmt.Errorf("fattree k=%d: need k <= %d", s.K, l.MaxFatTreeK)
	}
	if s.Kind == "xpander" && s.Lift < l.MinXpanderLift {
		return fmt.Errorf("xpander lift=%d: need lift >= %d", s.Lift, l.MinXpanderLift)
	}
	return nil
}

// ConsecutiveRacks reports whether workloads over an x fraction of racks
// take the first racks rather than a random subset: the paper places a
// fat-tree's active racks in consecutive pods (Fig. 11's 77%-cost tree
// included); flat topologies get a random fraction.
func (s Spec) ConsecutiveRacks() bool { return s.Kind == "fattree" }

// Normalize puts a daemon spec in canonical form: it fills the daemon's
// defaults, drops the fields the kind ignores (so specs that differ only
// in those share one cache entry), fills DesignHash from the registry and
// validates. It accepts only the kinds whose parameters the JSON encoding
// carries: dragonfly, lps and fat-trees below full cost are CLI-only.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case "design":
		*s = Spec{Kind: s.Kind, Name: s.Name}
		if err := s.Validate(); err != nil {
			return err
		}
		d, _ := LookupDesign(s.Name)
		s.DesignHash = d.Hash()
		return nil
	case "fattree":
		if s.Cost != 0 {
			return fmt.Errorf("fattree cost=%g: the JSON encoding carries only full-cost fat-trees", s.Cost)
		}
		*s = Spec{Kind: s.Kind, K: cmp.Or(s.K, 8)}
	case "jellyfish":
		*s = Spec{Kind: s.Kind, N: cmp.Or(s.N, 54), Degree: cmp.Or(s.Degree, 9), Servers: cmp.Or(s.Servers, 6), Seed: cmp.Or(s.Seed, 1)}
	case "xpander":
		*s = Spec{Kind: s.Kind, Degree: cmp.Or(s.Degree, 9), Lift: cmp.Or(s.Lift, 9), Servers: cmp.Or(s.Servers, 6), Seed: cmp.Or(s.Seed, 1)}
	case "slimfly":
		*s = Spec{Kind: s.Kind, Q: cmp.Or(s.Q, 5), Servers: cmp.Or(s.Servers, 6)}
	case "longhop":
		*s = Spec{Kind: s.Kind, Dim: cmp.Or(s.Dim, 6), Degree: cmp.Or(s.Degree, 9), Servers: cmp.Or(s.Servers, 6)}
	default:
		return fmt.Errorf("unknown topology kind %q (want fattree|jellyfish|xpander|slimfly|longhop|design)", s.Kind)
	}
	return s.Validate()
}

// mul returns a·b for non-negative operands, saturating at math.MaxInt
// instead of wrapping.
func mul(a, b int) int {
	if a < 0 || b < 0 {
		return a * b
	}
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}
