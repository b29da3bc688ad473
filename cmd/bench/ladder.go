package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/rpc"
	"github.com/deeprecinfra/deeprecsys/internal/sched"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/sim"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// smokeMode shrinks every ladder rung to a token amount of work.
var smokeMode bool

// scaled is n, or a token count in smoke mode.
func scaled(n int) int {
	if smokeMode {
		return max(1, n/100)
	}
	return n
}

// timeOp returns the median seconds per call of fn over five rounds of at
// least 10 ms each (the call count per round is found by doubling). Smoke
// mode times a single call.
func timeOp(fn func()) float64 {
	n, rounds := 1, 5
	for !smokeMode {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	if smokeMode {
		rounds = 1
	}
	var per []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, time.Since(start).Seconds()/float64(n))
	}
	return median(per)
}

// mallocsPer returns heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// calibScalarGFLOPS is the drift reference: a 256^3 GEMM on the scalar
// backend, which no kernel work in this repo is meant to change. It must
// run while nothing else does, because the backend switch is global.
func calibScalarGFLOPS() float64 {
	prev := tensor.ActiveBackend()
	if err := tensor.SetBackend(tensor.Scalar); err != nil {
		return 0
	}
	defer tensor.SetBackend(prev)
	rng := rand.New(rand.NewSource(1))
	a, b, dst := tensor.RandUniform(rng, 256, 256, 1), tensor.RandUniform(rng, 256, 256, 1), tensor.New(256, 256)
	// The host's speed wanders at the scale of one call (about 7 ms), so
	// time many calls singly and keep the median.
	var secs []float64
	for i := 0; i < scaled(33)+2; i++ {
		start := time.Now()
		tensor.MatMulInto(dst, a, b)
		secs = append(secs, time.Since(start).Seconds())
	}
	return 2 * 256 * 256 * 256 / median(secs) / 1e9
}

// ladderBatch is the batch the kernel, layer and model rungs run at: the
// serving workloads' pinned batch size.
const ladderBatch = batchSize

// shortName maps a zoo model to the suffix its metrics carry.
var shortName = map[string]string{
	"DLRM-RMC1": "rmc1", "DLRM-RMC2": "rmc2", "DLRM-RMC3": "rmc3", "NCF": "ncf",
	"WnD": "wnd", "MT-WnD": "mtwnd", "DIN": "din", "DIEN": "dien",
}

// runLadder calls each layer's exported functions directly, with the shapes
// the workloads use, and records one number per rung. It is the same for
// every workload, so a traced run of any of them reports every layer.
func runLadder(w int, out *report) error {
	rng := rand.New(rand.NewSource(1))
	ladderTensor(rng, out)
	ladderNN(rng, out)
	for _, rungs := range []func() error{
		func() error { return ladderEmbstore(out) },
		func() error { return ladderModel(w, rng, out) },
		func() error { return ladderLive(w, out) },
		func() error { return ladderWire(w, out) },
		func() error { return ladderOffline(out) },
	} {
		if err := rungs(); err != nil {
			return err
		}
	}
	return nil
}

func ladderTensor(rng *rand.Rand, out *report) {
	gemm := func(name string, m, k, n int, bias bool) {
		a, b, dst := tensor.RandUniform(rng, m, k, 1), tensor.RandUniform(rng, k, n, 1), tensor.New(m, n)
		op := func() { tensor.MatMulInto(dst, a, b) }
		if bias {
			bv := tensor.RandUniform(rng, 1, n, 1)
			op = func() { tensor.MatMulAddBiasInto(dst, a, b, bv) }
		}
		out.set(name, 2*float64(m)*float64(k)*float64(n)/timeOp(op)/1e9, 5)
	}
	gemm("tensor.gemm_gflops.256", 256, 256, 256, false)
	gemm("tensor.gemm_gflops.rmc3", ladderBatch, 2560, 512, true) // RMC3's widest Dense-FC layer
	gemm("tensor.gemm_gflops.ncf", 32, 256, 256, false)           // a fixed:32 query: the small-m path

	// Pooling: 1024 rows of RMC1's width, eight sources each. Bytes are
	// computed from the shapes (8 source reads, 1 destination read, 1
	// write per element), not measured.
	const rows, dim = 1024, 32
	src := tensor.RandUniform(rng, 8*rows, dim, 1)
	dst := tensor.New(rows, dim)
	secs := timeOp(func() {
		for r := 0; r < rows; r++ {
			s := src.Data[8*r*dim:]
			tensor.AddTo8(dst.Row(r), s[:dim], s[dim:2*dim], s[2*dim:3*dim], s[3*dim:4*dim], s[4*dim:5*dim], s[5*dim:6*dim], s[6*dim:7*dim], s[7*dim:8*dim])
		}
	})
	out.set("tensor.addto8_gbps", 10*rows*dim*4/secs/1e9, 5)
}

// randIndices draws a [batch][lookups] index set.
func randIndices(rng *rand.Rand, batch, lookups, rows int) [][]int {
	idx := make([][]int, batch)
	for i := range idx {
		idx[i] = make([]int, lookups)
		for j := range idx[i] {
			idx[i][j] = rng.Intn(rows)
		}
	}
	return idx
}

func randSeqs(rng *rand.Rand, batch, steps, dim int) []*tensor.Tensor {
	seqs := make([]*tensor.Tensor, batch)
	for i := range seqs {
		seqs[i] = tensor.RandUniform(rng, steps, dim, 1)
	}
	return seqs
}

// mustZoo returns a zoo configuration by a name that is a constant of this
// file, so a miss is a bug here, not bad input.
func mustZoo(name string) model.Config {
	cfg, err := model.ByName(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

func ladderNN(rng *rand.Rand, out *report) {
	var ar tensor.Arena
	perItem := func(secs float64) float64 { return secs / ladderBatch * 1e6 }
	for _, name := range []string{"DLRM-RMC1", "DLRM-RMC3"} {
		cfg := mustZoo(name)
		bag := nn.NewEmbeddingBag(rng, cfg.TableRows, cfg.EmbDim, cfg.Pool)
		idx := randIndices(rng, ladderBatch, cfg.LookupsPerTable, cfg.TableRows)
		secs := timeOp(func() { ar.Reset(); bag.ForwardInto(&ar, idx) })
		out.set("nn.embbag_ns_per_lookup."+shortName[name], secs/float64(ladderBatch*cfg.LookupsPerTable)*1e9, 5)
		dense := nn.NewMLP(rng, append([]int{cfg.DenseInDim}, cfg.DenseFC...), nn.ReLU, nn.ReLU)
		x := tensor.RandUniform(rng, ladderBatch, cfg.DenseInDim, 1)
		out.set("nn.mlp_us_per_item."+shortName[name]+"_dense", perItem(timeOp(func() { ar.Reset(); dense.ForwardInto(&ar, x) })), 5)
	}
	ncf := mustZoo("NCF")
	table := nn.NewEmbeddingTable(rng, ncf.TableRows, ncf.EmbDim)
	one := randIndices(rng, 1, ladderBatch, ncf.TableRows)[0]
	out.set("nn.embtable_ns_per_lookup.ncf", timeOp(func() { ar.Reset(); table.LookupInto(&ar, one) })/ladderBatch*1e9, 5)
	predict := nn.NewMLP(rng, append(append([]int{ncf.InteractionDim()}, ncf.PredictFC...), 1), nn.ReLU, nn.Sigmoid)
	x := tensor.RandUniform(rng, ladderBatch, ncf.InteractionDim(), 1)
	out.set("nn.mlp_us_per_item.ncf_predict", perItem(timeOp(func() { ar.Reset(); predict.ForwardInto(&ar, x) })), 5)

	din := mustZoo("DIN")
	att := nn.NewAttention(rng, din.EmbDim, din.AttentionHidden)
	q, hist := tensor.RandUniform(rng, ladderBatch, din.EmbDim, 1), randSeqs(rng, ladderBatch, din.SeqLen, din.EmbDim)
	out.set("nn.attention_us_per_item.din", perItem(timeOp(func() { ar.Reset(); att.ForwardInto(&ar, q, hist) })), 5)
	dien := mustZoo("DIEN")
	gru := nn.NewGRU(rng, dien.EmbDim, dien.GRUHidden)
	seqs := randSeqs(rng, ladderBatch, dien.SeqLen, dien.EmbDim)
	out.set("nn.gru_us_per_item.dien", perItem(timeOp(func() { ar.Reset(); gru.ForwardInto(&ar, seqs) })), 5)
}

func ladderEmbstore(out *report) error {
	const dim = 32
	rowNs := func(st embstore.Store, src workload.IndexSource) float64 {
		var sink float32
		secs := timeOp(func() { sink += st.Row(src.Next())[0] })
		_ = sink
		return secs * 1e9
	}
	uniform := func(rows int) workload.IndexSource {
		return workload.UniformAccess{}.Source(rand.New(rand.NewSource(2)), rows)
	}
	dense, err := embstore.NewDense(1, 0, 100000, dim, embstore.Shard{})
	if err != nil {
		return err
	}
	out.set("embstore.dense_row_ns", rowNs(dense, uniform(dense.Rows())), 5)
	const rows = 1000000
	synth, err := embstore.NewSynth(1, 0, rows, dim, embstore.Shard{})
	if err != nil {
		return err
	}
	out.set("embstore.synth_row_ns", rowNs(synth, uniform(rows)), 5)

	// A fixed number of accesses from a fixed seed, so the hit rate repeats
	// exactly; the row time is the mean over those accesses.
	accesses := scaled(300000)
	for _, access := range []struct {
		name string
		dist workload.IndexDist
	}{{"zipf", workload.ZipfAccess{S: 1.2, V: 1}}, {"uniform", workload.UniformAccess{}}} {
		cached, err := embstore.NewCached(synth, embstore.CacheConfig{Policy: embstore.CacheLRU, Rows: 50000})
		if err != nil {
			return err
		}
		src := access.dist.Source(rand.New(rand.NewSource(3)), rows)
		var sink float32
		start := time.Now()
		for i := 0; i < accesses; i++ {
			sink += cached.Row(src.Next())[0]
		}
		_ = sink
		out.set("embstore.cached_row_ns."+access.name, float64(time.Since(start))/float64(accesses), accesses)
		out.set("embstore.hit_rate."+access.name, cached.Stats().HitRate(), accesses)
	}
	return nil
}

func ladderModel(w int, rng *rand.Rand, out *report) error {
	for _, cfg := range model.Zoo() {
		short := shortName[cfg.Name]
		start := time.Now()
		m, err := model.New(cfg, 1)
		if err != nil {
			return err
		}
		build := time.Since(start).Seconds()
		served := short == "rmc1" || short == "rmc3" || short == "ncf"
		if served {
			out.set("model.build_s."+short, build, 1)
		}
		s := model.NewScratch()
		in := m.NewInput(rng, ladderBatch)
		fwd := func() { m.ForwardInto(s, in) }
		fwd() // grow the arena to its high-water mark
		out.set("model.fwd_us_per_item."+short+".b256", timeOp(fwd)/ladderBatch*1e6, 5)
		if !served {
			continue
		}
		small := m.NewInput(rng, 16)
		out.set("model.fwd_us_per_item."+short+".b16", timeOp(func() { m.ForwardInto(s, small) })/16*1e6, 5)
		// The lane draws its input inside the served latency.
		s2 := model.NewScratch()
		out.set("model.newinput_us_per_item."+short, timeOp(func() { m.NewInputInto(s2, rng, ladderBatch) })/ladderBatch*1e6, 5)
		switch short {
		case "rmc1":
			out.set("model.fwd_allocs", mallocsPer(scaled(200), fwd), scaled(200))
			ctrs := m.Forward(in)
			out.set("model.rank_us.top10_of_256", timeOp(func() { model.RankTopN(ctrs, topN) })*1e6, 5)
		case "rmc3":
			big := m.NewInput(rng, 1024)
			scratches := make([]*model.Scratch, w)
			for i := range scratches {
				scratches[i] = model.NewScratch()
			}
			serial := timeOp(func() { m.ForwardInto(s, big) })
			split := timeOp(func() { m.ForwardSplit(scratches, big, w) })
			out.set("model.split_speedup.b1024", serial/split, 5)
		}
	}
	return nil
}

func ladderLive(w int, out *report) error {
	ctx := context.Background()
	ncf, err := model.New(mustZoo("NCF"), 1)
	if err != nil {
		return err
	}
	svc, err := live.New(live.Config{Model: ncf, Workers: w, BatchSize: batchSize})
	if err != nil {
		return err
	}
	var failed error
	submit := func(svc *live.Service, size int) {
		if _, err := svc.Submit(ctx, live.Query{Candidates: size, TopN: topN}); err != nil {
			failed = err
		}
	}
	// Fill the 4096-sample latency window with the cheapest query there is;
	// its median is the floor a Submit costs on an idle service.
	var floor []float64
	for i := 0; i < scaled(4096); i++ {
		start := time.Now()
		submit(svc, 1)
		floor = append(floor, float64(time.Since(start))/1e3)
	}
	out.set("live.submit_floor_us", median(floor), len(floor))
	out.set("live.stats_call_us", timeOp(func() { svc.Stats() })*1e6, 5)
	out.set("live.allocs_per_query", mallocsPer(scaled(2000), func() { submit(svc, 32) }), scaled(2000))
	svc.Close()

	// A lone 1000-candidate query: what splitting it across the lanes buys.
	rmc3, err := model.New(mustZoo("DLRM-RMC3"), 1)
	if err != nil {
		return err
	}
	for _, batch := range []int{256, 1024} {
		svc, err := live.New(live.Config{Model: rmc3, Workers: w, BatchSize: batch})
		if err != nil {
			return err
		}
		var ms []float64
		for i := 0; i < scaled(300)/100+2; i++ {
			start := time.Now()
			submit(svc, 1000)
			ms = append(ms, float64(time.Since(start))/1e6)
		}
		svc.Close()
		out.set(map[int]string{256: "live.q1000_ms.b256", 1024: "live.q1000_ms.b1024"}[batch], median(ms), len(ms))
	}

	win := stats.NewWindow(4096)
	x := 0.0
	out.set("stats.window_add_ns", timeOp(func() { x += 1e-6; win.Add(x) })*1e9, 5)
	out.set("stats.window_p95_us.4096", timeOp(func() { win.Percentile(95) })*1e6, 5)

	cfgs := []live.Config{
		{Model: ncf, Workers: wireWorkers(w), BatchSize: batchSize, Seed: 1},
		{Model: ncf, Workers: wireWorkers(w), BatchSize: batchSize, Seed: 7920},
	}
	fl, err := fleet.New(cfgs, fleet.NewLeastLoaded())
	if err != nil {
		return err
	}
	for i := 0; i < scaled(4096); i++ {
		if _, _, err := fl.Submit(ctx, live.Query{Candidates: 1, TopN: topN}); err != nil {
			failed = err
		}
	}
	out.set("fleet.stats_call_us", timeOp(func() { fl.Stats() })*1e6, 5)
	fl.Close()
	return failed
}

// ladderWire measures the wire format itself and one request's allocations
// through the whole ncf-small-wire stack.
func ladderWire(w int, out *report) error {
	req := rpc.RecommendRequest{Candidates: 32, TopN: topN}
	resp := rpc.RecommendResponse{ServerUs: 312, Batch: batchSize}
	for i := 0; i < topN; i++ {
		resp.Recs = append(resp.Recs, rpc.Rec{Item: 31 - i, CTR: 0.5 - 0.001*float32(i)})
	}
	reqBytes, _ := json.Marshal(req)
	respBytes, _ := json.Marshal(resp)
	out.set("rpc.req_bytes", float64(len(reqBytes)), 1)
	out.set("rpc.resp_bytes.top10", float64(len(respBytes)), 1)
	// One query encodes a request and a response, and decodes both.
	out.set("rpc.encode_us", timeOp(func() { json.Marshal(req); json.Marshal(resp) })*1e6, 5)
	out.set("rpc.decode_us", timeOp(func() {
		var rq rpc.RecommendRequest
		var rs rpc.RecommendResponse
		json.Unmarshal(reqBytes, &rq)
		json.Unmarshal(respBytes, &rs)
	})*1e6, 5)

	st, err := startWire(servingSpecs[2], w)
	if err != nil {
		return err
	}
	n := scaled(1000)
	ok := uint64(0)
	call := func() {
		if _, err := st.submit(context.Background(), 0, 32); err == nil {
			ok++
		}
	}
	for i := 0; i < 16; i++ {
		call() // open the connection, grow the buffers
	}
	out.set("rpc.allocs_per_request", mallocsPer(n, call), n)
	_, broken := st.finish(ok)
	out.broken = append(out.broken, broken...)
	return nil
}

// ladderOffline covers the layers only tune-sim runs.
func ladderOffline(out *report) error {
	gen := workload.NewGenerator(workload.Poisson{RatePerSec: 400}, workload.DefaultProduction(), 1)
	out.set("workload.gen_ns_per_query", timeOp(func() { gen.Next() })*1e9, 5)

	cfg := mustZoo("DLRM-RMC1")
	cpu := serving.NewPlatformEngine(platform.Skylake(), nil, cfg)
	queries := workload.NewGenerator(workload.Poisson{RatePerSec: 400}, workload.DefaultProduction(), 1).Take(scaled(10000))
	secs := timeOp(func() { serving.Run(cpu, serving.Config{BatchSize: batchSize, Warmup: 1}, queries) })
	out.set("serving.run_kqps", float64(len(queries))/secs/1e3, 5)

	t := newTuner(nil)
	opts := t.opts(0)
	out.set("serving.maxqps_ms", timeOp(func() { serving.MaxQPS(cpu, serving.Config{BatchSize: batchSize}, opts) })*1e3, 5)
	var d sched.Decision
	out.set("sched.tune_ms.rmc1_gpu", timeOp(func() { d = sched.DeepRecSchedGPU(t.gpu[0], opts) })*1e3, 5)
	out.set("sched.tune_evals.rmc1_gpu", float64(d.Evaluations), 1)
	var calls atomic.Int64
	sched.DeepRecSchedGPU(countingEngine{t.gpu[0], &calls}, opts)
	out.set("serving.engine_calls_per_tune", float64(calls.Load()), 1)

	s := sim.New()
	events := scaled(200000)
	left := 0
	var tick func()
	tick = func() {
		if left--; left > 0 {
			s.After(time.Microsecond, tick)
		}
	}
	secs = timeOp(func() { s.Reset(); left = events; s.After(time.Microsecond, tick); s.Run() })
	out.set("sim.events_per_s", float64(events)/secs, 5)

	profile := model.BuildProfile(cfg)
	skylake := platform.Skylake()
	var sink time.Duration
	out.set("platform.request_time_ns", timeOp(func() { sink += skylake.RequestTime(profile, batchSize, 1) })*1e9, 5)
	_ = sink
	return nil
}
