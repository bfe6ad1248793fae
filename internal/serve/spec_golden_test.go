package serve

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"beyondft/internal/harness"
	"beyondft/internal/topology"
)

// goldenDesign registers a fixed design for the golden tables and returns
// a function that unregisters it.
func goldenDesign(t *testing.T) func() {
	t.Helper()
	d := topology.DesignOf(topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(4))))
	d.Name = "golden-design"
	if err := topology.RegisterDesign(d); err != nil {
		t.Fatal(err)
	}
	return func() { topology.UnregisterDesign(d.Name) }
}

// goldenTopos holds one topology body per daemon kind; the whatif and
// pathstats rows reuse them.
var goldenTopos = []struct{ name, topo string }{
	{"fattree", `{"kind":"fattree","k":4}`},
	{"fattree-default", `{"kind":"fattree","n":7,"servers":3,"seed":9}`},
	{"jellyfish", `{"kind":"jellyfish","n":12,"degree":3,"servers":2}`},
	{"jellyfish-default", `{"kind":"jellyfish","k":6,"lift":3}`},
	{"xpander", `{"kind":"xpander","degree":3,"lift":4,"servers":2,"seed":5}`},
	{"slimfly", `{"kind":"slimfly","q":5,"servers":2,"seed":3}`},
	{"longhop", `{"kind":"longhop","dim":4,"degree":5,"servers":1}`},
	{"design", `{"kind":"design","name":"golden-design","n":99,"seed":2}`},
}

// goldenKeys pins the result-cache key of every normalized request below.
// A change here orphans every cached result, so it must come with a
// CodeSalt bump — never silently.
var goldenKeys = map[string]string{
	"throughput/fattree":           "c96cfa6df752709f563572d839e669a79d715bc85555e1fed76b1f07db987391",
	"throughput/fattree-default":   "33411d96854cf10291051415e55852e8189b79b94e141f01dea5b35280efa42d",
	"throughput/jellyfish":         "9058d0164f3cc974ae4756d82c157f6d03e8051c23319daeed26a0b1cf696da9",
	"throughput/jellyfish-default": "0182f859e40cfdf5a514fc708798c442bdb01070e4938f4192455f061e782a47",
	"throughput/xpander":           "d15870ccaba2aa478a9dfa7abbbd4b8745d4e4df5527b288f9f81c6c63905374",
	"throughput/slimfly":           "a531fe2a56d4f578933230a7171ffff79513c0b2e0562ce7cadfdbf1f646b307",
	"throughput/longhop":           "c11c649f1caee4d1d35ecd0826c2b9dd24c34eefb4c47c5afae601ef0d6f0a0c",
	"throughput/design":            "0822b8f5f1204afeb57a3aa286c668edf59b50b65ea0d991d4d3b5a3ed916b8d",
	"pathstats/fattree":            "f7e2188766240d8aca9ae454f7e50ed3c191b101029229b65badb404f883f7c4",
	"pathstats/fattree-default":    "32704ef89d18fe42d3dd202a139b7206f9c6b62c39be80c54597a1650f33168f",
	"pathstats/jellyfish":          "2c5d34ba9996a580084da87c8650975ff2e013a3c70c1543b0944075c72a33d2",
	"pathstats/jellyfish-default":  "f0bc7d11334f67925accf81c15cfe77f1ab943d4dfb26f7ff7a0af9d5db6305d",
	"pathstats/xpander":            "7612e2f37f704d9aa10465add838d6be287f862dcd6e45c3d4e1e1fd1451ea7f",
	"pathstats/slimfly":            "d74526acf345afa6697cb75e4c31d3e74cb273d135d38997c760f54f853aeaac",
	"pathstats/longhop":            "a3d1bf64b709556c874e1618e7245120826866debf5ba0074911724b9ec45f7b",
	"pathstats/design":             "9e56973aa3f98762146a59de1c2d575bd9a7d3037729732b2a599a578d0e5b6a",
	"whatif/fattree":               "3ef6a64a6145a8006faca72c4f6c564e790f63a34b04ab618a8fc47218a35e50",
	"whatif/fattree-default":       "7c8c8b07cb26dc1b1fe94150f868a5bc933e0123942bf91b9ab969d5e3df12c4",
	"whatif/jellyfish":             "e7b295a2371a313c37a8e6453da88742580536483053a145f3a295ecc957fc19",
	"whatif/jellyfish-default":     "b4fa2eae5d3d3b00d75d53467458ada0801345b97bd08e76654fcb1cb8cc35a8",
	"whatif/xpander":               "f836c97b90dc4cfa499bff361ece6ad88caf010c0b1f1b56f269fa4345109535",
	"whatif/slimfly":               "105305efd42e6d1343497c6215b8278e33a675b45e61208512134ad5093a0fd7",
	"whatif/longhop":               "ca7f78e9135c7efaf8a6c2e7832ae99d5c7b36cc632d20a11d4bcfcd4da77322",
	"whatif/design":                "d92d7fb969420133ee5a22ffef153a0bf9375ad626c4891b292e74e4ab9341f7",
}

// TestGoldenCacheKeys pins the canonical encoding of normalized requests:
// the cache key of each throughput, pathstats and whatif body must not
// move when the topology spec code is refactored.
func TestGoldenCacheKeys(t *testing.T) {
	defer goldenDesign(t)()
	decode := func(body string, v interface{ normalize() error }) {
		t.Helper()
		req := httptest.NewRequest("POST", "/", strings.NewReader(body))
		if err := decodeBody(req, v); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if err := v.normalize(); err != nil {
			t.Fatalf("normalize %s: %v", body, err)
		}
	}
	got := map[string]string{}
	for _, g := range goldenTopos {
		var thr ThroughputRequest
		decode(`{"topo":`+g.topo+`,"tm":"permutation","x":0.5}`, &thr)
		got["throughput/"+g.name] = harness.Key("v1/throughput", thr.spec(), CodeSalt)

		var ps PathStatsRequest
		decode(`{"topo":`+g.topo+`}`, &ps)
		got["pathstats/"+g.name] = harness.Key("v1/pathstats", ps.spec(), CodeSalt)

		var wi WhatifRequest
		decode(`{"topo":`+g.topo+`,"family":{"kind":"single-link"}}`, &wi)
		got["whatif/"+g.name] = harness.Key("v1/whatif", wi.spec(), CodeSalt)
	}
	if len(got) != len(goldenKeys) {
		t.Fatalf("computed %d keys, golden table has %d", len(got), len(goldenKeys))
	}
	for name, key := range got {
		if goldenKeys[name] != key {
			t.Errorf("%s: key %s, golden %s", name, key, goldenKeys[name])
		}
	}
	if t.Failed() {
		data, _ := json.MarshalIndent(got, "", "\t")
		t.Logf("computed keys:\n%s", data)
	}
}

// TestDaemonRejectionTable pins which topology bodies the daemon accepts:
// one row on each side of every bound the daemon enforces, plus the
// CLI-only parameters, which are unknown JSON fields to the daemon.
func TestDaemonRejectionTable(t *testing.T) {
	defer goldenDesign(t)()
	rows := []struct {
		topo string
		ok   bool
	}{
		// kinds
		{`{"kind":"nope"}`, false},
		{`{"kind":""}`, false},
		{`{"kind":"dragonfly"}`, false},
		{`{"kind":"lps"}`, false},
		{`{"kind":"fattree77"}`, false},
		// fattree: even k in [2,64]
		{`{"kind":"fattree"}`, true},
		{`{"kind":"fattree","k":2}`, true},
		{`{"kind":"fattree","k":1}`, false},
		{`{"kind":"fattree","k":3}`, false},
		{`{"kind":"fattree","k":-2}`, false},
		{`{"kind":"fattree","k":64}`, true},
		{`{"kind":"fattree","k":66}`, false},
		{`{"kind":"fattree","k":4,"servers":999}`, true},
		// jellyfish: n in [2,8192], degree in [2,n), n·degree even
		{`{"kind":"jellyfish"}`, true},
		{`{"kind":"jellyfish","n":3,"degree":2}`, true},
		{`{"kind":"jellyfish","n":2,"degree":2}`, false},
		{`{"kind":"jellyfish","n":1,"degree":2}`, false},
		{`{"kind":"jellyfish","n":-4,"degree":2}`, false},
		{`{"kind":"jellyfish","n":8192,"degree":2}`, true},
		{`{"kind":"jellyfish","n":8193,"degree":2}`, false},
		{`{"kind":"jellyfish","n":8,"degree":1}`, false},
		{`{"kind":"jellyfish","n":8,"degree":-1}`, false},
		{`{"kind":"jellyfish","n":8,"degree":7}`, true},
		{`{"kind":"jellyfish","n":8,"degree":8}`, false},
		{`{"kind":"jellyfish","n":13,"degree":4}`, true},
		{`{"kind":"jellyfish","n":13,"degree":3}`, false},
		{`{"kind":"jellyfish","servers":0}`, true},
		{`{"kind":"jellyfish","servers":-1}`, false},
		{`{"kind":"jellyfish","servers":256}`, true},
		{`{"kind":"jellyfish","servers":257}`, false},
		// xpander: degree >= 2, lift >= 2, (degree+1)·lift <= 8192
		{`{"kind":"xpander"}`, true},
		{`{"kind":"xpander","degree":2,"lift":2}`, true},
		{`{"kind":"xpander","degree":1,"lift":2}`, false},
		{`{"kind":"xpander","degree":-3,"lift":2}`, false},
		{`{"kind":"xpander","degree":2,"lift":1}`, false},
		{`{"kind":"xpander","degree":2,"lift":-1}`, false},
		{`{"kind":"xpander","degree":7,"lift":1024}`, true},
		{`{"kind":"xpander","degree":7,"lift":1025}`, false},
		{`{"kind":"xpander","servers":256}`, true},
		{`{"kind":"xpander","servers":257}`, false},
		{`{"kind":"xpander","servers":-1}`, false},
		// slimfly: prime q ≡ 1 (mod 4), 2q² <= 8192
		{`{"kind":"slimfly"}`, true},
		{`{"kind":"slimfly","q":13}`, true},
		{`{"kind":"slimfly","q":61}`, true},
		{`{"kind":"slimfly","q":73}`, false},
		{`{"kind":"slimfly","q":2}`, false},
		{`{"kind":"slimfly","q":1}`, false},
		{`{"kind":"slimfly","q":-5}`, false},
		{`{"kind":"slimfly","q":7}`, false},
		{`{"kind":"slimfly","q":9}`, false},
		{`{"kind":"slimfly","q":21}`, false},
		{`{"kind":"slimfly","servers":256}`, true},
		{`{"kind":"slimfly","servers":257}`, false},
		{`{"kind":"slimfly","servers":-1}`, false},
		// longhop: dim in [2,13], degree in [dim, 2^dim)
		{`{"kind":"longhop"}`, true},
		{`{"kind":"longhop","dim":2,"degree":2}`, true},
		{`{"kind":"longhop","dim":1,"degree":2}`, false},
		{`{"kind":"longhop","dim":-1,"degree":2}`, false},
		{`{"kind":"longhop","dim":13,"degree":13}`, true},
		{`{"kind":"longhop","dim":14,"degree":14}`, false},
		{`{"kind":"longhop","dim":4,"degree":3}`, false},
		{`{"kind":"longhop","dim":4,"degree":4}`, true},
		{`{"kind":"longhop","dim":4,"degree":15}`, true},
		{`{"kind":"longhop","dim":4,"degree":16}`, false},
		{`{"kind":"longhop","servers":256}`, true},
		{`{"kind":"longhop","servers":257}`, false},
		{`{"kind":"longhop","servers":-1}`, false},
		// design: a registered name
		{`{"kind":"design","name":"golden-design"}`, true},
		{`{"kind":"design","name":"golden-design","servers":999}`, true},
		{`{"kind":"design"}`, false},
		{`{"kind":"design","name":"no-such-design"}`, false},
		// CLI-only parameters are not part of the daemon's encoding
		{`{"kind":"fattree","cost":0.77}`, false},
		{`{"kind":"fattree","cost":1}`, false},
		{`{"kind":"jellyfish","a":4}`, false},
		{`{"kind":"jellyfish","h":2}`, false},
		{`{"kind":"jellyfish","p":5}`, false},
		{`{"kind":"jellyfish","lpsq":13}`, false},
	}
	for _, row := range rows {
		var req PathStatsRequest
		r := httptest.NewRequest("POST", "/", strings.NewReader(`{"topo":`+row.topo+`}`))
		err := decodeBody(r, &req)
		if err == nil {
			err = req.normalize()
		}
		if (err == nil) != row.ok {
			t.Errorf("%s: accepted=%v (err %v), want accepted=%v", row.topo, err == nil, err, row.ok)
		}
	}
}
