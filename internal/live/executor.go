package live

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// indexSampler binds one lane's Stream to the configured sparse-access
// distribution, caching one source per table geometry: the degrade fallback
// model (and a sharded store) can serve a different row count than the
// service model, and a Zipf source is bound to its range at construction.
// Sources draw through rand.New(st) — a view of the lane's own state, so
// their draws and NewInputSampled's direct fills are one seeded stream. A
// nil sampler (or a model without tables) yields a nil source: the Stream's
// own uniform bulk fill.
type indexSampler struct {
	dist workload.IndexDist
	rng  *rand.Rand
	srcs map[int]model.IndexSource
}

func newIndexSampler(dist workload.IndexDist, st *model.Stream) *indexSampler {
	if dist == nil {
		return nil
	}
	return &indexSampler{dist: dist, rng: rand.New(st), srcs: make(map[int]model.IndexSource)}
}

// source returns the sampler's IndexSource for m's table geometry.
func (is *indexSampler) source(m *model.Model) model.IndexSource {
	if is == nil {
		return nil
	}
	rows := m.TableRows()
	if rows <= 0 {
		return nil
	}
	src, ok := is.srcs[rows]
	if !ok {
		src = is.dist.Source(is.rng, rows)
		is.srcs[rows] = src
	}
	return src
}

// Executor is one execution lane of a live Service. The service routes each
// accepted query to exactly one lane: the CPU pool splits it into
// batch-sized requests executed as real forward passes, while the
// accelerator lane takes it whole — the heterogeneous split DeepRecSched's
// threshold knob controls. A lane owns the query from Enqueue until it
// retires the last unit of work on the inflight tracker (closing iq.done);
// cancellation is cooperative through the tracker's skip flag.
type Executor interface {
	// Enqueue admits one whole query of the given size to the lane. It
	// blocks while the lane's admission is at capacity, honoring ctx: on
	// cancellation it unwinds the query's outstanding work and returns
	// ctx.Err(). On success the query's completion is signalled through
	// iq.done.
	Enqueue(ctx context.Context, iq *inflight, size int) error
	// Close drains the lane: it returns only after every admitted query has
	// retired. Callers must guarantee no Enqueue call is in flight.
	Close()
}

// cpuPool is the CPU lane: a fixed worker pool executing batch-sized chunks
// of each query as real model forward passes. The lane is shared by every
// tenant; the per-request batch size is read per query from the serving
// tenant's live knob, so controller retunes take effect on the next
// submission.
//
// Each worker owns its model.Scratch (plus intraOp-1 more when intra-query
// splitting is enabled), so steady-state forward passes allocate nothing;
// scratches are never shared across workers — the race-enabled live tests
// pin that ownership rule. Scratches are model-agnostic (NewInputSampled
// re-derives shapes per call), so the one scratch set serves every tenant's
// model — the "multiple per-tenant model scratch sets behind one lane pair"
// is one arena re-shaped per chunk, not N arenas.
type cpuPool struct {
	tenants []*tenant
	scale   *atomicScale // live service-time stretch; the CPU lane only slows (>= 1 effective)
	intraOp int          // goroutines a big chunk's forward pass may fan out to
	tasks   chan chunk
	wg      sync.WaitGroup
}

// newCPUPool starts the worker pool.
func newCPUPool(tenants []*tenant, workers, queueDepth int, seed int64, scale *atomicScale, intraOp int) *cpuPool {
	p := &cpuPool{tenants: tenants, scale: scale, intraOp: intraOp, tasks: make(chan chunk, queueDepth)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(model.NewStream(seed + int64(w)))
	}
	return p
}

// worker executes batch-sized chunks: a real forward pass over a fresh
// random input of the chunk's size, then (when the query wants ranked
// output) a per-chunk top-N selection merged at query completion.
func (p *cpuPool) worker(st *model.Stream) {
	defer p.wg.Done()
	scratches := make([]*model.Scratch, p.intraOp)
	for i := range scratches {
		scratches[i] = model.NewScratch()
	}
	// One sampler per tenant, all bound to this worker's stream: each tenant
	// keeps its own access distribution while the worker's draw sequence
	// stays deterministic under Seed. A tenant with uniform access has a
	// nil sampler (the stream's own bulk fill).
	samplers := make([]*indexSampler, len(p.tenants))
	for i, t := range p.tenants {
		samplers[i] = newIndexSampler(t.access, st)
	}
	for c := range p.tasks {
		if c.q.skip.Load() {
			c.q.retire()
			continue
		}
		// The chunk executes its query's model — the serving tenant's, or
		// its fallback variant under deep degradation.
		t, m := c.q.tn, c.q.m
		start := time.Now()
		in := m.NewInputSampled(scratches[0], st, c.size, samplers[t.idx].source(m))
		// With IntraOp > 1, big-batch chunks split across the par pool for
		// intra-query parallelism (bit-identical results).
		out := m.ForwardMaybeSplit(scratches, in)
		// Per-node heterogeneity: a slow node stretches real execution
		// proportionally. Forward passes cannot be sped up, so factors
		// below 1 yield no pad and the lane floors at real speed. The factor
		// is read per chunk so chaos slowdown injection applies immediately.
		if pad := time.Duration(float64(time.Since(start)) * (p.scale.Load() - 1)); pad > 0 {
			time.Sleep(pad)
		}
		if n := c.q.topN; n > 0 {
			if n > c.size {
				n = c.size
			}
			ranked := model.RankTopN(out, n)
			for i := range ranked {
				ranked[i].Item += c.base
			}
			c.q.mu.Lock()
			c.q.recs = append(c.q.recs, ranked...)
			c.q.mu.Unlock()
		}
		c.q.retire()
	}
}

// Enqueue implements Executor: the query is split into batch-sized chunks
// pushed onto the bounded task queue.
func (p *cpuPool) Enqueue(ctx context.Context, iq *inflight, size int) error {
	batch := int(iq.tn.batch.Load())
	iq.batch = batch
	nChunks := (size + batch - 1) / batch
	iq.pending.Store(int32(nChunks))
	base := 0
	for i := 0; i < nChunks; i++ {
		csize := batch
		if rem := size - base; csize > rem {
			csize = rem
		}
		select {
		case p.tasks <- chunk{q: iq, base: base, size: csize}:
			base += csize
		case <-ctx.Done():
			// Unsent chunks retire here; sent ones retire in workers,
			// which skip their forward pass once the flag is up.
			iq.skip.Store(true)
			for j := i; j < nChunks; j++ {
				iq.retire()
			}
			return ctx.Err()
		}
	}
	return nil
}

// Close implements Executor.
func (p *cpuPool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// accelerator is the offload lane: a modeled GPU-class device that serves
// whole queries (no batch splitting — the device's internal parallelism
// plays the role request parallelism plays on the host) for the modeled
// service time platform.GPU.QueryTime, with at most Streams queries in
// flight. It is the live analogue of kickGPU in the offline simulator: the
// device queue is unbounded, realized as one goroutine per admitted query
// waiting on a stream slot, with Submit's completion wait providing the
// backpressure.
type accelerator struct {
	gpu     *platform.GPU
	scale   *atomicScale  // live service-time stretch on the modeled device time
	slots   chan struct{} // one token per concurrent device stream
	seq     atomic.Int64  // per-query seed stream for ranked offloads
	seed    int64
	scratch sync.Pool // *offloadScratch for ranked offloads (one per active stream)
	wg      sync.WaitGroup
}

// offloadScratch is what one ranked offload draws from and computes in; the
// stream is re-seeded per query, so which pooled one a query gets is moot.
type offloadScratch struct {
	s  *model.Scratch
	st model.Stream
}

// newAccelerator builds the lane, shared by every tenant. The modeled
// service time of each query is computed from the serving tenant's own
// model profile, so an FC-heavy tenant and an embedding-heavy tenant
// occupying the same device streams cost what their architectures cost.
func newAccelerator(gpu *platform.GPU, seed int64, scale *atomicScale) *accelerator {
	streams := gpu.Streams
	if streams < 1 {
		streams = 1
	}
	a := &accelerator{
		gpu:   gpu,
		scale: scale,
		slots: make(chan struct{}, streams),
		seed:  seed,
	}
	a.scratch.New = func() any { return &offloadScratch{s: model.NewScratch()} }
	return a
}

// Enqueue implements Executor. Admission never blocks — the device queue is
// unbounded, like the simulator's gpuQueue — so the only cancellation
// observable here is a context that is already done.
func (a *accelerator) Enqueue(ctx context.Context, iq *inflight, size int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	iq.batch = size // offloaded whole: one device request of the full size
	iq.pending.Store(1)
	a.wg.Add(1)
	go a.run(iq, size)
	return nil
}

// run models one device-side query: it occupies a stream slot for the
// modeled service time. When ranked output was requested the forward pass
// runs host-side inside the slot — the model stands in for the device's
// arithmetic — and the wait is padded up to the modeled time, so that
// latency-only load (TopN 0, the capacity scenario) is a pure modeled wait
// and ranked queries still return real recommendations.
func (a *accelerator) run(iq *inflight, size int) {
	defer a.wg.Done()
	if iq.skip.Load() {
		iq.retire() // cancelled while queued: take no slot at all
		return
	}
	a.slots <- struct{}{} // wait for a free stream
	defer func() { <-a.slots }()
	if iq.skip.Load() {
		iq.retire() // cancelled during the wait: consume no device time
		return
	}
	t, m := iq.tn, iq.m
	service := time.Duration(float64(a.gpu.QueryTime(t.profile, size)) * a.scale.Load())
	start := time.Now()
	if n := iq.topN; n > 0 {
		o := a.scratch.Get().(*offloadScratch)
		o.st.Seed(a.seed + a.seq.Add(1))
		// Ranked offloads bind one fresh source per query — the stream is
		// freshly seeded too, so the draw sequence stays deterministic.
		out := m.ForwardInto(o.s, m.NewInputSampled(o.s, &o.st, size, newIndexSampler(t.access, &o.st).source(m)))
		if n > size {
			n = size
		}
		iq.mu.Lock()
		iq.recs = append(iq.recs, model.RankTopN(out, n)...)
		iq.mu.Unlock()
		a.scratch.Put(o)
	}
	if rem := service - time.Since(start); rem > 0 {
		time.Sleep(rem)
	}
	iq.retire()
}

// saturated reports whether every device stream is currently occupied — the
// controller's signal that lowering the threshold further would only deepen
// the device queue, not add parallelism. Occupancy, not queued demand, is
// the signal: cancelled queries waiting in the queue hold no stream and
// will consume no device time, so they must not read as load.
func (a *accelerator) saturated() bool {
	return len(a.slots) == cap(a.slots)
}

// Close implements Executor.
func (a *accelerator) Close() { a.wg.Wait() }
