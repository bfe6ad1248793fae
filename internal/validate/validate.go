// Package validate cross-checks the repo's four traffic models against each
// other and against machine-verifiable invariants. The same small scenarios
// (fat-tree, Jellyfish, Xpander topologies × permutation and all-to-all
// traffic matrices) run through the exact LP, the Garg–Könemann FPTAS, the
// flow-level simulator and the packet-level simulator, and every pairwise
// comparison must land within the declared tolerances below. Each simulator
// run additionally asserts conservation laws (packet and byte accounting in
// netsim, max-min capacity/work conservation in flowsim) and bit-identical
// same-seed replay. DESIGN.md §10 documents the architecture and the
// tolerance table.
package validate

// Declared tolerances. These are contracts, not tuning knobs: a violation
// means one of the models is wrong, so the checks fail rather than warn.
// They are quoted in DESIGN.md §10 — keep the two in sync.
const (
	// GKEpsilon is the approximation parameter the cross-checks run the
	// Garg–Könemann solver at.
	GKEpsilon = 0.05
	// GKLowerFrac: at GKEpsilon the GK primal must reach at least this
	// fraction of the exact LP optimum (the theoretical floor is
	// (1−ε)³ ≈ 0.857; we declare 0.85 to absorb float rounding).
	GKLowerFrac = 0.85
	// LPSlack is the absolute slack allowed in LP-vs-GK comparisons
	// (simplex and the FPTAS both accumulate ~1e-9 float error; 1e-6
	// bounds it with margin).
	LPSlack = 1e-6
	// FCTRatioLo/Hi bound mean(netsim FCT)/mean(flowsim FCT) per scenario.
	// The packet simulator pays wire overhead (1500B MTU / 1400B payload
	// ≈ 1.07×), DCTCP slow-start ramp and queueing that the fluid flow
	// model ignores, pushing the ratio above 1; it must stay below
	// FCTRatioHi or the flow model is no longer predictive. The ratio can
	// also dip below 1 on multipath topologies: netsim's ECMP re-hashes
	// per flowlet and spreads a flow over several core paths, while
	// flowsim pins each flow to one sampled path — but by more than
	// FCTRatioLo's margin would mean flows finish faster than any
	// conservation-of-work argument allows.
	FCTRatioLo = 0.6
	FCTRatioHi = 2.5
)

// Check is one named pass/fail verdict with a human-readable detail line.
// Err empty means pass.
type Check struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// OK reports whether the check passed.
func (c Check) OK() bool { return c.Err == "" }

// All runs the full cross-model validation sweep: exact-LP-vs-GK on every
// fluid scenario, flowsim-vs-netsim FCT agreement, conservation invariants
// and same-seed replay determinism on every simulator scenario. smoke
// selects the reduced grid wired into `make test`; the full grid runs as
// harness jobs (see Jobs).
func All(seed int64, smoke bool) []Check {
	var out []Check
	for _, g := range groups {
		out = append(out, g.run(seed, smoke)...)
	}
	return out
}

// groups are the sweep's check groups in All's order; Jobs registers each
// as one harness job under its name.
var groups = []struct {
	name string
	run  func(seed int64, smoke bool) []Check
}{
	{"validate-fluid", FluidChecks},
	{"validate-sims", SimChecks},
	{"validate-sketch", SketchChecks},
}

// Failed returns the subset of checks that failed.
func Failed(checks []Check) []Check {
	var bad []Check
	for _, c := range checks {
		if !c.OK() {
			bad = append(bad, c)
		}
	}
	return bad
}
