#!/usr/bin/env bash
# The repository's checks as named stages. .github/workflows/ci.yml runs one
# stage per step and .claude/skills/verify/SKILL.md names the stage to run
# after which kind of change, so each command line is written once, here.
#
#   scripts/ci.sh list            the stage names, in CI order
#   scripts/ci.sh <stage>...      run the named stages
#   scripts/ci.sh all             run every stage
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

serve() { go run ./cmd/deeprecsys serve "$@"; }

stage_fmt() {
  local out
  out=$(gofmt -l .)
  if [ -n "$out" ]; then
    echo "gofmt needed on:" && echo "$out" && return 1
  fi
}

stage_vet() { go vet ./...; }

stage_build() {
  go build ./...
  go build ./cmd/... ./examples/...
}

# The portable side of the kernel dispatch: simd_other.go's stubs and
# cpu_other.go are compiled by nothing else here, and every kernel added to
# simd_amd64.go needs one.
stage_arm64() {
  GOARCH=arm64 go build ./...
  GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/
}

# cmd/bench is its own module (replace => ../..), so `./...` neither builds
# nor tests it; it reads ServiceStats / fleet.Stats fields by selector, which
# a stats refactor can break unnoticed.
stage_bench_module() { (cd cmd/bench && go vet . && go test .); }

# Includes internal/tensor's sentinel-guarded shape grid
# (TestPanelNoWriteOutsideBlockAllBackends): 64-byte stores make an
# off-by-one a silent neighbour corruption.
stage_race() { go test -race ./...; }

# Kernel-backend matrix: the compute suites run once per backend. Forced
# scalar must be bit-identical to the pre-SIMD goldens (the scalar tier's
# contract); the default leg exercises the widest vector backend the runner
# supports (AVX512, else AVX2), where the SIMD golden re-pins exact
# recommendation order with bounded CTR drift under every vector backend and
# the cross-tier tests hold AVX512 to AVX2's bits; the avx2 leg caps the
# process at the 256-bit tier, so a runner with AVX-512 still exercises it as
# the *default* backend. Tests pinned to a backend the runner (or the leg)
# lacks skip, so on a non-AVX2 runner the legs are equivalent — all stay
# meaningful because the tolerance tests compare against in-process scalar
# reruns, not stored vector goldens.
compute_pkgs="./internal/tensor/ ./internal/nn/ ./internal/model/ ."
stage_backend_scalar() { DEEPRECSYS_BACKEND=scalar go test -count=1 $compute_pkgs; }
stage_backend_avx2() { DEEPRECSYS_BACKEND=avx2 go test -count=1 $compute_pkgs; }
# The packed-FC tests (Panel*, ReLU*, the residency and cross-tier zoo checks
# in internal/model) and the pooling tests (PoolSum*) run in every leg: the
# two above take whole packages, this one selects them by name (every
# backend-sensitive test carries SIMD, Backend, Panel, ReLU or Pool in its
# name).
stage_backend_simd() { go test -count=1 -v -run 'SIMD|Backend|Panel|ReLU|Pool' $compute_pkgs; }

# The offline path (sched → serving → sim → platform → workload → stats) held
# by bytes: Run's latency samples hashed bit for bit against captures from
# before the simulator's loops were hoisted, and Run — one entry per run of
# identical requests — against a literal one-entry-per-request simulator; the
# top-down capacity bracket against the ascending probe it replaced (naming
# the test by -run also enables its full 27,648-search grid, a few minutes);
# one Search reused through a whole climb, in any order, against a fresh
# search per configuration; the benchmark's 24 pinned tuning decisions and the
# capacity searches each took; and every quick-fidelity artifact against its
# golden rendering.
stage_offline_identity() {
  go test -count=1 -run 'TestRunBitsPinned|TestRunMatchesPerRequestReference|TestMaxQPSMatchesAscendingProbe|TestSearchReuseMatchesFreshSearches|TestZooDecisionsPinned|TestZooEvaluationsPinned|TestQuickArtifactsGolden' \
    ./internal/serving/ ./internal/sched/ ./internal/experiments/
}

# Parallel sweeps fan out deterministically: the report must not depend on
# the worker count.
stage_sweep_determinism() {
  go run ./cmd/sweep -model DLRM-RMC1 -sla 100ms -queries 600 -workers 1 > "$tmp/sweep-w1.txt"
  go run ./cmd/sweep -model DLRM-RMC1 -sla 100ms -queries 600 -workers 8 > "$tmp/sweep-w8.txt"
  cmp "$tmp/sweep-w1.txt" "$tmp/sweep-w8.txt"
}

# Root examples are compiled docs.
stage_examples() { go test -run Example -v -count=1 .; }

# The live tests run the CPU lane's per-worker scratch arenas (and the
# intra-op split path) under the race detector: scratches must never be
# shared across goroutines. The fleet soaks poll "fleet ledger == sum of
# tenant ledgers" on every Stats() while traffic and membership churn run.
stage_live_race() { go test -race -count=1 ./internal/live/ ./internal/fleet/ ./internal/stats/; }

# The one feedback state machine behind the tuner, the degrade ladder and the
# autoscaler, driven tick by tick with no clock.
stage_stepper() { go test -count=1 -run 'TestStepper' ./internal/live/; }

# Ten seconds of each fuzz target. FuzzSpecParsers: no spec grammar may panic,
# and whatever renders itself back in grammar form must re-parse to an equal
# value. FuzzPackedFCVsReference: the packed FC layer against its three
# oracles (naive reference under scalar, generic GEMM under each vector
# backend, AVX2 vs AVX512 bits), fuzzer-chosen shapes and operands.
# FuzzPoolSumVsReference: the gather-and-pool kernel against the naive
# list-order loop, by bits, on every backend, bad indices included.
# FuzzStreamIndices: the lanes' bulk index draw against the
# one-Uint64-at-a-time restatement of model.Stream's definition.
# FuzzWireDecoders: arbitrary bytes as every request body the server decodes
# and every reply the client decodes. FuzzRunMatchesReference: serving.Run
# against the literal per-request simulator, by bits, at a fuzzer-chosen batch
# size, threshold, arrival rate and stream seed.
stage_fuzz() {
  local target
  for target in FuzzSpecParsers:. FuzzPackedFCVsReference:./internal/tensor/ FuzzPoolSumVsReference:./internal/tensor/ \
    FuzzStreamIndices:./internal/model/ FuzzWireDecoders:./internal/rpc/ FuzzRunMatchesReference:./internal/serving/; do
    go test -run '^$' -fuzz "${target%%:*}" -fuzztime 10s "${target#*:}"
  done
}

stage_serve_fleet() { serve -model NCF -replicas 2 -policy least-loaded -rate 400 -n 300 -workers 2; }

# The chaos soak is the overload acceptance test: a flash crowd into a
# 3-replica fleet with shed-oldest admission, a replica crashed and restarted
# mid-run, zero admitted queries lost, and the shed/degrade/retry counter
# identities holding exactly across the fleet merge.
stage_chaos_soak() {
  go test -race -count=1 -run 'TestChaosSoakFlashCrowd|TestRetryOnCrashAccounting|TestAutoscaleGrowsAndShrinks|TestCloseUnderSaturationAbandonsQueued|TestFailAbortsPromptly' \
    ./internal/live/ ./internal/fleet/
}

# Multi-tenant serving: two tenants with distinct models/SLAs/shares on one
# shared 2-replica pool behind shape-spread placement, one of them over its
# own cached store; the exit report must carry one ledger line per tenant and
# that tenant's embedding-store line, from its own spec and table geometry.
stage_serve_tenants() {
  local out
  out=$(serve -replicas 2 -workers 2 -policy shape-spread \
    -tenants "DLRM-RMC1@name=ads,sla=150ms,share=2,batch=64,store=synth+cache=lru:2000,rows=100000,access=zipf:1.2;WnD@name=ranking,sla=400ms,cap=16,batch=16" \
    -workload fixed:32 -rate 40 -n 200)
  echo "$out"
  echo "$out" | grep -q "per-tenant:" || { echo "missing per-tenant report"; return 1; }
  echo "$out" | grep -q "ads" || { echo "missing ads tenant line"; return 1; }
  echo "$out" | grep -q "ranking" || { echo "missing ranking tenant line"; return 1; }
  echo "$out" | grep -q 'tenant ads: embedding store "synth,cache=lru:2000": 100000-row tables, zipf:1.2 access' ||
    { echo "missing the ads tenant's embedding-store line"; return 1; }
}

# The mixed-tenant churn soak: per-tenant counter conservation and fleet
# totals == tenant sums across Add/Drain/Remove, under -race.
stage_tenant_soak() {
  go test -race -count=1 -run 'TestMixedTenantFleetSoak|TestFleetTenantCap|TestTenantPartitionPlacement' ./internal/fleet/
}

# The wire boundary under the race detector: server/client failure semantics,
# the RemoteReplica fleet membership, and the over-the-wire chaos soak
# (delay/drop/reset + server crash & restart mid-run, exact per-tenant
# counter conservation across both incarnations).
stage_wire_race() { go test -race -count=1 ./internal/rpc/; }

# End-to-end over a real socket: `serve -listen` + `loadgen -target`, probes
# answered, /statsz counters moved, SIGTERM drains gracefully (exit code 0 +
# "drained cleanly").
stage_wire_e2e() {
  local url=http://127.0.0.1:8123 srv
  go build -o "$tmp/deeprecsys" ./cmd/deeprecsys
  go build -o "$tmp/loadgen" ./cmd/loadgen
  "$tmp/deeprecsys" serve -model NCF -workers 2 -listen 127.0.0.1:8123 > "$tmp/serve.log" 2>&1 &
  srv=$!
  for _ in $(seq 1 50); do curl -sf $url/healthz > /dev/null && break; sleep 0.2; done
  curl -sf $url/healthz
  curl -sf $url/readyz
  "$tmp/loadgen" -target $url -rate 200 -n 200 -deadline 500ms -attempts 3
  curl -s $url/statsz | grep -q '"Completed":200' || { echo "statsz did not reach 200 completed"; curl -s $url/statsz; kill $srv; return 1; }
  kill -TERM $srv
  wait $srv
  grep -q "drained cleanly" "$tmp/serve.log" || { echo "no graceful-drain report"; cat "$tmp/serve.log"; return 1; }
}

# Flash crowd into the full defense stack.
stage_serve_overload() {
  serve -model NCF -replicas 2 -workers 2 -admission shed-oldest -deadline 400ms -degrade truncate=64 -autoscale 2:3 \
    -chaos "every=500ms,crash=0.5,restart=300ms" -retry -arrivals "flash:10,500ms,250ms,1s,500ms" -rate 300 -n 600
}

# The embedding memory tier: backend row-identity (dense/synth/mmap), cache
# counters, shard coverage, and the mapped store read concurrently from a
# real mmap'd file — all under the race detector.
stage_embstore_race() { go test -race -count=1 ./internal/embstore/ ./internal/workload/ ./internal/nn/; }

# At-scale serve smokes: 10^6-row mmap'd tables generated then served, 10^7-row
# synth tables behind a 200k-row LRU cache — the working set under zipf:1.2
# fits, so the hit rate lands >90% without ever materializing the ~10 GB
# dense tables — and rows split across two replicas.
stage_serve_mmap() {
  go run ./cmd/deeprecsys tables gen -model NCF -dir "$tmp/emb" -rows 1000000
  serve -model NCF -rows 1000000 -store "mmap:$tmp/emb,cache=lru:50000" -access zipf:1.2 -rate 400 -n 300 -workers 2
}
stage_serve_synth() {
  serve -model DLRM-RMC1 -rows 10000000 -store synth,cache=lru:200000 -access zipf:1.2 -rate 500 -n 300 -workload fixed:64
}
stage_serve_sharded() {
  go run ./cmd/deeprecsys tables gen -model NCF -dir "$tmp/embshard" -rows 100000 -shards 2
  serve -model NCF -rows 100000 -store "mmap:$tmp/embshard,cache=lru:5000" -access zipf:1.2 -replicas 2 -shard-tables -rate 300 -n 200
}

# The CPU-only and GPU-offload serving-simulation cases, the per-zoo-model
# real-execution forward pass (allocs/op guards the arena path), and the
# live-Service end-to-end throughput benchmark.
stage_bench_smoke() {
  go test -run '^$' -bench 'ServingSimulation|BenchmarkModelForward|LiveServiceThroughput' -benchtime=1x -benchmem .
}

# GEMM, pooling + forward-pass bench smoke on every kernel backend: the avx2
# and avx512 sub-benchmarks self-skip when the runner lacks them, and the
# forced-scalar ModelForward leg proves the portable kernels still drive the
# full zoo.
stage_bench_kernels() {
  go test -run '^$' -bench 'BenchmarkMatMulBackends|BenchmarkPoolSumBackends' -benchtime=1x ./internal/tensor/
  DEEPRECSYS_BACKEND=scalar go test -run '^$' -bench BenchmarkModelForward -benchtime=1x .
}

# The size ROADMAP item 2 tracks, by the command every CHANGES entry since
# PR 13 quotes: non-blank, non-comment lines of Go outside tests and
# cmd/bench, and the lines of assembly beside them.
stage_lines() {
  echo "code lines: $(find . -name '*.go' -not -name '*_test.go' -not -path './cmd/bench/*' | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)"
  echo "assembly lines: $(find . -name '*.s' | xargs cat | wc -l)"
}

stages=(fmt vet build arm64 bench_module race backend_scalar backend_avx2 backend_simd offline_identity
  sweep_determinism examples live_race stepper fuzz serve_fleet chaos_soak serve_tenants tenant_soak wire_race
  wire_e2e serve_overload embstore_race serve_mmap serve_synth serve_sharded bench_smoke bench_kernels lines)

[ $# -gt 0 ] || set -- list
[ "$1" != all ] || set -- "${stages[@]}"
for stage in "$@"; do
  if [ "$stage" = list ]; then
    printf '%s\n' "${stages[@]}"
  elif declare -F "stage_$stage" > /dev/null; then
    echo "== $stage"
    "stage_$stage"
  else
    echo "unknown stage $stage; stages: ${stages[*]}" >&2
    exit 2
  fi
done
