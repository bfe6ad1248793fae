# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-race vet bench-smoke serve-smoke cluster-smoke validate-smoke whatif-smoke sim-scale-smoke search-smoke fuzz-smoke fuzz cover figures figures-full run examples clean

all: build test

build:
	go build ./...

test: vet bench-smoke serve-smoke cluster-smoke validate-smoke whatif-smoke sim-scale-smoke search-smoke fuzz-smoke cover

# Full test suite with the per-package coverage gate (see README "Coverage
# gate"): every internal/ package must hold >= 60% statement coverage.
# covercheck also fails on any FAIL line, so this subsumes `go test ./...`.
cover:
	go test -cover ./... | go run ./cmd/covercheck -floor 60 -enforce internal/

# The harness, the experiment drivers, the serving core, the simulators and
# the parallel graph/flow kernels are the concurrent paths: run them under
# the race detector. Fuzz seed corpora run as ordinary tests here, so the
# fuzz targets are also race-checked.
test-race:
	go test -race ./internal/harness/... ./internal/experiments/... \
		./internal/graph/... ./internal/fluid/... ./internal/tm/... \
		./internal/serve/... ./internal/cluster/... ./internal/flowsim/... \
		./internal/netsim/... ./internal/sim/... ./internal/minheap/... \
		./internal/topology/... ./internal/validate/... ./internal/whatif/... \
		./internal/search/...

# Cross-model validation (DESIGN.md §10): exact LP vs Garg–Könemann vs
# flowsim vs netsim on shared scenarios, plus conservation and replay
# determinism. The smoke grid is wired into `make test`; add -full for the
# full grid. Any failed check fails the run.
validate-smoke:
	@dir=$$(mktemp -d) && go run ./cmd/runner run -only 'validate-*' -no-cache -out $$dir; \
	status=$$?; rm -rf $$dir; exit $$status

# What-if sweep smoke (DESIGN.md §12): a full single-link sweep of a tiny
# fabric via cmd/whatif, run at 1 and 8 workers and then resumed from the
# scenario cache — stdout (histogram + worst-k frontier) must be
# byte-identical every time. Wired into `make test`.
WHATIF_DIR := .whatif-smoke
WHATIF_ARGS := -topo jellyfish -n 16 -degree 4 -servers 2 -family single-link
whatif-smoke:
	@rm -rf $(WHATIF_DIR) && mkdir -p $(WHATIF_DIR)
	@go build -o $(WHATIF_DIR)/whatif ./cmd/whatif
	@$(WHATIF_DIR)/whatif $(WHATIF_ARGS) -workers 1 > $(WHATIF_DIR)/w1.out 2>/dev/null
	@$(WHATIF_DIR)/whatif $(WHATIF_ARGS) -workers 8 -cache $(WHATIF_DIR)/cache > $(WHATIF_DIR)/w8.out 2>/dev/null
	@$(WHATIF_DIR)/whatif $(WHATIF_ARGS) -workers 4 -cache $(WHATIF_DIR)/cache > $(WHATIF_DIR)/resumed.out 2>/dev/null
	@cmp $(WHATIF_DIR)/w1.out $(WHATIF_DIR)/w8.out || { echo "whatif-smoke: worker count changed the sweep"; exit 1; }
	@cmp $(WHATIF_DIR)/w1.out $(WHATIF_DIR)/resumed.out || { echo "whatif-smoke: cache resume changed the sweep"; exit 1; }
	@grep -q '^worst' $(WHATIF_DIR)/w1.out || { echo "whatif-smoke: no frontier in output"; cat $(WHATIF_DIR)/w1.out; exit 1; }
	@echo "whatif-smoke: ok (single-link sweep deterministic across workers and cache resume)"
	@rm -rf $(WHATIF_DIR)

# Scale-tier smoke (DESIGN.md §13): the same flowsim workload at 1, 2 and 8
# event-loop shards, and once more split across a checkpoint/resume (resuming
# into yet another shard count) — stdout (counters, slab high water, full
# sketch JSON) must be byte-identical every time. Wired into `make test`.
SIMSCALE_DIR := .simscale-smoke
SIMSCALE_ARGS := -k 4 -flows 2000
sim-scale-smoke:
	@rm -rf $(SIMSCALE_DIR) && mkdir -p $(SIMSCALE_DIR)
	@go build -o $(SIMSCALE_DIR)/simscale ./cmd/simscale
	@$(SIMSCALE_DIR)/simscale $(SIMSCALE_ARGS) -shards 1 > $(SIMSCALE_DIR)/s1.out
	@$(SIMSCALE_DIR)/simscale $(SIMSCALE_ARGS) -shards 2 > $(SIMSCALE_DIR)/s2.out
	@$(SIMSCALE_DIR)/simscale $(SIMSCALE_ARGS) -shards 8 > $(SIMSCALE_DIR)/s8.out
	@cmp $(SIMSCALE_DIR)/s1.out $(SIMSCALE_DIR)/s2.out || { echo "sim-scale-smoke: 2 shards changed the simulation"; exit 1; }
	@cmp $(SIMSCALE_DIR)/s1.out $(SIMSCALE_DIR)/s8.out || { echo "sim-scale-smoke: 8 shards changed the simulation"; exit 1; }
	@$(SIMSCALE_DIR)/simscale $(SIMSCALE_ARGS) -shards 2 -halt-after 1000 -checkpoint $(SIMSCALE_DIR)/cp.json > /dev/null
	@$(SIMSCALE_DIR)/simscale $(SIMSCALE_ARGS) -shards 4 -resume $(SIMSCALE_DIR)/cp.json > $(SIMSCALE_DIR)/resumed.out
	@cmp $(SIMSCALE_DIR)/s1.out $(SIMSCALE_DIR)/resumed.out || { echo "sim-scale-smoke: checkpoint resume changed the simulation"; exit 1; }
	@echo "sim-scale-smoke: ok (byte-identical across 1/2/8 shards and a 2-shard checkpoint resumed at 4 shards)"
	@rm -rf $(SIMSCALE_DIR)

# Design-search smoke (DESIGN.md §15): a tiny fixed-seed annealing search
# via cmd/search, run at 1 and 8 workers and then resumed from the candidate
# cache — stdout (trace + summary) must be byte-identical every time and the
# best-found design must be >= the seed baseline. The written design file is
# then evaluated by name through cmd/throughput, closing the loop from
# search output to first-class topology. Wired into `make test`.
SEARCH_DIR := .search-smoke
SEARCH_ARGS := -topo jellyfish -n 12 -degree 3 -servers 2 -budget 14 -batch 5 -proxy-top 2 -coarse 0.3 -fine 0.15 -seed 3
search-smoke:
	@rm -rf $(SEARCH_DIR) && mkdir -p $(SEARCH_DIR)
	@go build -o $(SEARCH_DIR)/search ./cmd/search
	@go build -o $(SEARCH_DIR)/throughput ./cmd/throughput
	@$(SEARCH_DIR)/search $(SEARCH_ARGS) -workers 1 > $(SEARCH_DIR)/s1.out 2>/dev/null
	@$(SEARCH_DIR)/search $(SEARCH_ARGS) -workers 8 -cache $(SEARCH_DIR)/cache -out $(SEARCH_DIR)/designs > $(SEARCH_DIR)/s8.out 2>/dev/null
	@$(SEARCH_DIR)/search $(SEARCH_ARGS) -workers 4 -cache $(SEARCH_DIR)/cache > $(SEARCH_DIR)/resumed.out 2>/dev/null
	@cmp $(SEARCH_DIR)/s1.out $(SEARCH_DIR)/s8.out || { echo "search-smoke: worker count changed the search"; exit 1; }
	@cmp $(SEARCH_DIR)/s1.out $(SEARCH_DIR)/resumed.out || { echo "search-smoke: cache resume changed the search"; exit 1; }
	@awk '/^summary:/ { split($$2, b, "="); split($$3, v, "="); if (v[2] + 0 < b[2] + 0) { print "search-smoke: best " v[2] " below baseline " b[2]; exit 1 } found = 1 } END { if (!found) { print "search-smoke: no summary line"; exit 1 } }' $(SEARCH_DIR)/s1.out
	@$(SEARCH_DIR)/throughput -designs $(SEARCH_DIR)/designs -topo design -name search-best -eps 0.15 > $(SEARCH_DIR)/thr.out
	@grep -q '^topology: search-best' $(SEARCH_DIR)/thr.out || { echo "search-smoke: best design not evaluable by name"; cat $(SEARCH_DIR)/thr.out; exit 1; }
	@echo "search-smoke: ok (deterministic across workers and cache resume; best >= baseline; design runs by name)"
	@rm -rf $(SEARCH_DIR)

# The native fuzz targets' seed corpora, run as plain tests so `make test`
# catches postcondition regressions without fuzzing time.
FUZZ_PKGS := ./internal/graph ./internal/minheap ./internal/sim ./internal/topology ./internal/search
fuzz-smoke:
	go test -run '^Fuzz' $(FUZZ_PKGS)

# Actual coverage-guided fuzzing, one target per package (go's fuzzer
# accepts a single -fuzz match per invocation).
FUZZTIME := 30s
fuzz:
	go test -run '^$$' -fuzz '^FuzzKShortestPaths$$' -fuzztime $(FUZZTIME) ./internal/graph
	go test -run '^$$' -fuzz '^FuzzDeltaOverlay$$' -fuzztime $(FUZZTIME) ./internal/graph
	go test -run '^$$' -fuzz '^FuzzHeapVsSortOracle$$' -fuzztime $(FUZZTIME) ./internal/minheap
	go test -run '^$$' -fuzz '^FuzzEngineEventOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	go test -run '^$$' -fuzz '^FuzzTopologyGenerators$$' -fuzztime $(FUZZTIME) ./internal/topology
	go test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime $(FUZZTIME) ./internal/topology
	go test -run '^$$' -fuzz '^FuzzRewire$$' -fuzztime $(FUZZTIME) ./internal/search

vet:
	go vet ./...

# Kernel, simulator and serving benchmarks; the end-to-end benchmark is
# perfbench (BENCHMARK.json). The scale-tier benchmarks
# (BenchmarkFlowsimScale10M, BenchmarkNetsimScale1M) skip unless
# BEYONDFT_SCALE=1.
BENCH_PATTERN := BenchmarkAPSP|BenchmarkPathStats|BenchmarkBFS|BenchmarkDijkstra|BenchmarkLongestMatching|BenchmarkMaxConcurrentFlow|BenchmarkGKMaxConcurrentFlow|BenchmarkServeThroughputCached|BenchmarkGKObserverDisabled|BenchmarkWhatifSingleLinkSweep|BenchmarkFlowsimSteadyState|BenchmarkFlowsimScale10M|BenchmarkNetsimScale1M
BENCH_DIRS := ./internal/graph ./internal/fluid ./internal/tm ./internal/serve ./internal/whatif ./internal/flowsim ./internal/netsim .

# One iteration of those benchmarks, wired into `make test` so they cannot
# bit-rot.
bench-smoke:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x $(BENCH_DIRS)

# End-to-end smoke of the query daemon (see DESIGN.md §8): boot it on a
# free port, probe it exactly like a client would (curl /healthz and one
# /v1/throughput), and check SIGTERM drains cleanly. Wired into `make test`.
SMOKE_DIR := .serve-smoke
serve-smoke:
	@rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	@go build -o $(SMOKE_DIR)/beyondftd ./cmd/beyondftd
	@$(SMOKE_DIR)/beyondftd -addr 127.0.0.1:0 -cache $(SMOKE_DIR)/cache \
		-out $(SMOKE_DIR)/runs -port-file $(SMOKE_DIR)/port 2> $(SMOKE_DIR)/log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $(SMOKE_DIR)/port ] && break; sleep 0.1; done; \
	[ -s $(SMOKE_DIR)/port ] || { echo "serve-smoke: daemon never bound"; cat $(SMOKE_DIR)/log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat $(SMOKE_DIR)/port); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: GET /healthz -> $$code"; kill $$pid; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$$addr/v1/throughput" \
		-d '{"topo":{"kind":"jellyfish","n":24,"degree":5,"servers":4},"tm":"permutation","x":0.5}'); \
	[ "$$code" = 200 ] || { echo "serve-smoke: POST /v1/throughput -> $$code"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: daemon exited non-zero"; cat $(SMOKE_DIR)/log; exit 1; }; \
	grep -q 'drained cleanly' $(SMOKE_DIR)/log || { echo "serve-smoke: no clean drain"; cat $(SMOKE_DIR)/log; exit 1; }; \
	echo "serve-smoke: ok ($$addr: /healthz 200, /v1/throughput 200, clean drain)"; \
	rm -rf $(SMOKE_DIR)

# End-to-end smoke of the cluster tier (DESIGN.md §14): three in-process
# nodes on one consistent-hash ring at replication factor 2 with gossip
# membership serve a mixed query/batch workload; one node is killed mid-run
# (survivors evict it via gossip, not operator action) and later rejoins
# under its old URL with an empty cache. Every result must be byte-identical
# to a standalone node with ZERO duplicate computes fleet-wide — the kill
# loses no cached bytes and the rejoined node warms itself entirely from
# peers. Wired into `make test`.
cluster-smoke:
	go test -run '^TestClusterSmoke$$' -count=1 ./internal/cluster

# The paper's tables and figures (DESIGN.md §4), printed in paper order and
# written as CSVs under runs/latest.
figures:
	go run ./cmd/runner run -only 'table1,fig*'

figures-full:
	go run ./cmd/runner run -only 'table1,fig*' -full

# Parallel, cached evaluation of the whole registry (see DESIGN.md §6).
run:
	go run ./cmd/runner run

examples:
	go run ./examples/quickstart
	go run ./examples/routing
	go run ./examples/throughputprop
	go run ./examples/skewed
	go run ./examples/rotornet

clean:
	go clean ./...
