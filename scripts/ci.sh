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

# The portable side of the kernel dispatch: simd_other.go's stubs,
# cpu_other.go and internal/model's stream_other.go are compiled by nothing
# else here, and every kernel added to simd_amd64.go or stream_amd64.go needs
# one. arm64 is where scalar is the only tier, and its compiler fuses a*b + c
# unless the product is converted, float32(a*b) or float64(a*b): the scalar
# tier and the offline path's pinned bits promise a separate rounding for
# each, so a fused op anywhere in internal/...'s listing fails the stage (-a,
# because a cached build prints no listing).
stage_arm64() {
  GOARCH=arm64 go build ./...
  GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/ ./internal/model/
  local listing
  listing=$(GOARCH=arm64 go build -a -gcflags='./internal/...=-S' ./internal/... 2>&1)
  grep -q STEXT <<<"$listing" || { echo "no arm64 listing printed"; return 1; }
  if grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' <<<"$listing"; then
    echo "arm64 fuses the multiply-adds above; wrap each product in float32(...) or float64(...)" && return 1
  fi
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

# The offline path (sched → serving → platform → workload → stats) held by
# bytes: Run's latency samples hashed bit for bit against captures from
# before the simulator's loops were hoisted, and Run — one entry per run of
# identical requests — against a literal one-entry-per-request simulator on
# internal/sim's event queue, also where an arrival, a CPU and an accelerator
# completion land on one nanosecond; the
# top-down capacity bracket against the ascending probe it replaced (naming
# the test by -run also enables its full 27,648-search grid, a few minutes);
# one Search reused through a whole climb, in any order, against a fresh
# search per configuration; every probe that stops once its p95 is certain to
# miss against the full run, which must miss, and every one that does not
# against the full run, by bits; a warm search allocating only its Result's
# samples, and the probe's selected p95 against the sorted one; the
# benchmark's 24 pinned tuning decisions and the capacity searches each took;
# every quick-fidelity artifact against its golden rendering; and the fleet
# figures on one worker against eight.
stage_offline_identity() {
  go test -count=1 -run 'TestRunBitsPinned|TestRunMatchesPerRequestReference|TestTiesFireInSchedulingOrder|TestMaxQPSMatchesAscendingProbe|TestBracketHoldsMaxQPS|TestSearchReuseMatchesFreshSearches|TestProbeStopMatchesFullRun|TestWarmSearchAllocatesOnlyItsResult|TestSelectPercentileMatchesPercentile|TestZooDecisionsPinned|TestZooEvaluationsPinned|TestQuickArtifactsGolden|TestFleetFiguresIndependentOfWorkers' \
    ./internal/serving/ ./internal/stats/ ./internal/sched/ ./internal/experiments/
}

# Parallel sweeps fan out deterministically: the report must not depend on
# the worker count.
stage_sweep_determinism() {
  go run ./cmd/deeprecsys sweep -model DLRM-RMC1 -sla 100ms -queries 600 -workers 1 > "$tmp/sweep-w1.txt"
  go run ./cmd/deeprecsys sweep -model DLRM-RMC1 -sla 100ms -queries 600 -workers 8 > "$tmp/sweep-w8.txt"
  cmp "$tmp/sweep-w1.txt" "$tmp/sweep-w8.txt"
}

# Root examples are compiled docs; each program under examples/ must also run
# to a zero exit at its default flags.
stage_examples() {
  go test -run Example -v -count=1 .
  local ex
  for ex in examples/*/; do
    echo "-- $ex"
    go build -o "$tmp/example" "./$ex"
    "$tmp/example" > "$tmp/example.log" 2>&1 || { cat "$tmp/example.log"; echo "$ex exited non-zero"; return 1; }
  done
}

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
# value. FuzzServeOptions: fuzzed knobs (NaN, ±Inf, 0 and negatives) and spec
# seeds on two tenants and the service; Serve refuses, naming a field, or
# serves 32 queries with every ledger conserved, the split by share and every
# Stats number finite. FuzzPackedFCVsReference: the packed FC layer against its three
# oracles (naive reference under scalar, fmaRef — the GEMM contract — under
# each vector backend, AVX2 vs AVX512 bits), fuzzer-chosen shapes and
# operands. FuzzSIMDMatMulVsScalar: each vector backend against scalar within
# the k-linear tolerance the vector tier promises. FuzzPoolSumVsReference: the
# gather-and-pool kernel against the naive list-order loop, by bits, on every
# backend, bad indices included. FuzzStreamIndices: the lanes' bulk index draw
# against the one-Uint64-at-a-time restatement of model.Stream's definition.
# FuzzWireDecoders: arbitrary bytes as every request body the server decodes
# and every reply the client decodes. FuzzRecommendCodec: the recommend
# verb's hand-written codec against encoding/json, bytes out and values in.
# FuzzRunMatchesReference: serving.Run against the literal per-request
# simulator, by bits, at a fuzzer-chosen batch size, threshold, arrival rate
# and stream seed. FuzzProbeStopMatchesFullRun:
# a run that may stop early against the full run at such a point, with the SLA
# a fuzzer-chosen number of nanoseconds from the full run's p95.
# FuzzClimbOnBracketsMatchesExact: DeepRecSched's climb and refine step on
# capacity brackets closing along fuzzer-chosen paths against the eager climb
# on the exact rates, at ties, plateaus and one ulp around both tolerances.
# FuzzWindowPercentile: the histogram window's count, its percentiles within
# one bucket of the sorted samples' ranks, and its Hists adding up across a
# split stream.
stage_fuzz() {
  local target
  for target in FuzzSpecParsers:. FuzzServeOptions:. FuzzPackedFCVsReference:./internal/tensor/ FuzzSIMDMatMulVsScalar:./internal/tensor/ \
    FuzzPoolSumVsReference:./internal/tensor/ FuzzStreamIndices:./internal/model/ FuzzWireDecoders:./internal/rpc/ \
    FuzzRecommendCodec:./internal/rpc/ FuzzRunMatchesReference:./internal/serving/ FuzzProbeStopMatchesFullRun:./internal/serving/ \
    FuzzClimbOnBracketsMatchesExact:./internal/sched/ FuzzWindowPercentile:./internal/stats/; do
    go test -run '^$' -fuzz "${target%%:*}" -fuzztime 10s "${target#*:}"
  done
}

# The second leg: size-aware routing steers by the GPU replica's own offload
# threshold, so every 256-item query reaches it and runs offloaded.
stage_serve_fleet() {
  local out
  serve -model NCF -replicas 2 -policy least-loaded -rate 400 -n 300 -workers 2 || return 1
  out=$(serve -model NCF -gpu -replicas 2 -gpu-replicas 1 -policy size-aware -threshold 128 \
    -workload fixed:256 -rate 200 -n 200 -workers 2) || return 1
  echo "$out"
  echo "$out" | grep -q "gpu offload: threshold 128, 200 queries" ||
    { echo "size-aware did not offload every 256-item query at threshold 128"; return 1; }
  # A remote GPU member is a GPU member: a CPU-only fleet joins a served GPU
  # node (replica 1), reads its accelerator from the snapshot it joins
  # with, and steers every query to it.
  local srv
  go build -o "$tmp/deeprecsys" ./cmd/deeprecsys
  "$tmp/deeprecsys" serve -model NCF -gpu -threshold 128 -workers 1 -listen 127.0.0.1:8124 > "$tmp/gpu-serve.log" 2>&1 &
  srv=$!
  for _ in $(seq 1 50); do curl -sf http://127.0.0.1:8124/healthz > /dev/null && break; sleep 0.2; done
  out=$("$tmp/deeprecsys" serve -model NCF -remote http://127.0.0.1:8124 -policy size-aware \
    -workload fixed:256 -rate 200 -n 200 -workers 2) || { kill $srv; return 1; }
  kill -TERM $srv
  wait $srv
  echo "$out"
  echo "$out" | grep -Eq '^ +1 +[0-9.]+ +yes +200 +[0-9]+ +128 ' ||
    { echo "the remote member is not a GPU member at threshold 128 serving all 200 queries"; return 1; }
}

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
# totals == tenant sums across Add/Drain/Remove, under -race; a member
# serving another model refused at join, in process and over the wire; and
# one policy value routing two fleets, each by its own tenant set.
stage_tenant_soak() {
  go test -race -count=1 -run 'TestMixedTenantFleetSoak|TestFleetTenantCap|TestTenantPartitionPlacement|TestJoinRefusesAnotherModel|TestPolicySharedAcrossFleets' ./internal/fleet/
}

# The wire boundary under the race detector: server/client failure semantics,
# the RemoteReplica fleet membership, and the over-the-wire chaos soak
# (delay/drop/reset + server crash & restart mid-run, exact per-tenant
# counter conservation across both incarnations).
stage_wire_race() { go test -race -count=1 ./internal/rpc/; }

# The remote member's front-door identity under contention: four copies of
# TestRemoteHealthEjection at once, fifty runs each. A /statsz read that
# times out or serves a stale body shows here as a lost count.
stage_remote_stress() {
  go test -c -o "$tmp/rpc.test" ./internal/rpc/
  local i pids=() failed=0
  for i in 1 2 3 4; do
    (cd internal/rpc && "$tmp/rpc.test" -test.run '^TestRemoteHealthEjection$' -test.count=50) > "$tmp/stress$i.log" 2>&1 &
    pids+=($!)
  done
  for i in 1 2 3 4; do
    wait "${pids[i-1]}" || { failed=1; grep -A3 -- '--- FAIL' "$tmp/stress$i.log"; }
  done
  return $failed
}

# End-to-end over a real socket: `deeprecsys serve -listen` + `deeprecsys
# loadgen -target`, probes answered, /statsz counters moved, its `service`
# ledger and every tenant's conserved, and its tenant's latency histogram
# published (what a remote fleet member folds), SIGTERM drains gracefully
# (exit code 0 + "drained cleanly").
stage_wire_e2e() {
  local url=http://127.0.0.1:8123 srv
  go build -o "$tmp/deeprecsys" ./cmd/deeprecsys
  "$tmp/deeprecsys" serve -model NCF -workers 2 -listen 127.0.0.1:8123 > "$tmp/serve.log" 2>&1 &
  srv=$!
  for _ in $(seq 1 50); do curl -sf $url/healthz > /dev/null && break; sleep 0.2; done
  curl -sf $url/healthz
  curl -sf $url/readyz
  "$tmp/deeprecsys" loadgen -target $url -rate 200 -n 200 -deadline 500ms -attempts 3
  curl -s $url/statsz | grep -q '"Completed":200' || { echo "statsz did not reach 200 completed"; curl -s $url/statsz; kill $srv; return 1; }
  curl -s $url/statsz | grep -q '"latency":\[\[' || { echo "statsz lists no latency histogram for its tenant"; curl -s $url/statsz; kill $srv; return 1; }
  curl -s $url/statsz | jq -e '[.service, .tenants[].stats] | all(.Submitted == .Completed + .Cancelled + .Shed + .ShedDeadline + .Failed + .Abandoned)' > /dev/null ||
    { echo "statsz ledgers not conserved"; curl -s $url/statsz; kill $srv; return 1; }
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

# The north star's "small" size, by the command every CHANGES entry since
# PR 13 quotes: non-blank, non-comment lines of Go outside tests and
# cmd/bench, and the lines of assembly beside them. cmd/bench's own
# non-test Go is counted the same way on a line of its own, so the
# benchmark shrinking or growing shows without moving the code line.
stage_lines() {
  echo "code lines: $(find . -name '*.go' -not -name '*_test.go' -not -path './cmd/bench/*' | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)"
  echo "bench lines: $(find ./cmd/bench -name '*.go' -not -name '*_test.go' | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)"
  echo "assembly lines: $(find . -name '*.s' | xargs cat | wc -l)"
}

stages=(fmt vet build arm64 bench_module race backend_scalar backend_avx2 backend_simd offline_identity
  sweep_determinism examples live_race stepper fuzz serve_fleet chaos_soak serve_tenants tenant_soak wire_race remote_stress
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
