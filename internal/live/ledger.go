package live

// Ledger is the lifetime counter ledger of one serving scope — a tenant, a
// service, a replica, a whole fleet. It holds monotone counters only: no
// knobs, gauges, percentiles, or ratios, so ledgers merge by plain addition
// (Add) at every tier, and every snapshot type above — live.Stats, the
// fleet's snapshots, the public ServiceStats — embeds this one declaration
// instead of re-declaring its fields.
type Ledger struct {
	// Submitted counts queries entering Submit. Every one leaves through
	// exactly one disposition (see Conserved).
	Submitted uint64
	// Completed counts served queries; Cancelled those whose caller gave
	// up (explicit cancellation, or a deadline that fired mid-execution).
	Completed, Cancelled uint64
	// Shed counts queries refused with ErrOverloaded by admission control,
	// each exactly once (rejections, full-queue sheds, and shed-oldest
	// evictions); Evicted is the shed-oldest subset. ShedDeadline counts
	// queries shed before execution because their deadline had already
	// expired (at arrival or during the queue wait). Abandoned counts
	// queued-but-unstarted queries flushed with ErrShutdown at Close.
	Shed, Evicted, ShedDeadline, Abandoned uint64
	// Failed counts queries aborted with ErrReplicaDown by fault injection
	// (in-flight at Fail, or arriving while failed).
	Failed uint64
	// Admitted counts queries that reached a lane and GPUQueries those
	// routed to the accelerator lane (both counted at admission, like the
	// simulator). WorkItems counts admitted candidate items across both
	// lanes and GPUItems the offloaded portion — the integer sums
	// GPUQueryShare and GPUWorkShare are derived from. Admitted is left off
	// the wire while it is zero, so a body written before it existed
	// re-encodes to the same keys.
	Admitted            uint64 `json:",omitempty"`
	GPUQueries          uint64
	WorkItems, GPUItems uint64
	// Retunes counts knob changes (batch size or offload threshold) made
	// by the AutoTune controller.
	Retunes uint64
	// DegradeSteps counts the degrade controller's ladder moves, Truncated
	// queries served over a truncated candidate slate, and FallbackServed
	// queries served by the cheaper fallback model.
	DegradeSteps, Truncated, FallbackServed uint64
	// EmbStore reports whether a pluggable embedding store backs the
	// model's tables; the Emb* counters are zero otherwise (classic
	// in-memory tables have nothing to count). It merges by OR.
	EmbStore bool
	// EmbHits / EmbMisses / EmbEvictions are the embedding-cache counters
	// summed across the model's tables (the degrade fallback model's
	// included when it is store-backed); EmbBytesRead is the bytes fetched
	// from backing storage — exactly the traffic the cache did NOT absorb.
	EmbHits, EmbMisses, EmbEvictions uint64
	EmbBytesRead                     uint64
}

// Add returns l with every counter of b added (EmbStore ORed).
func (l Ledger) Add(b Ledger) Ledger {
	l.Submitted += b.Submitted
	l.Completed += b.Completed
	l.Cancelled += b.Cancelled
	l.Shed += b.Shed
	l.Evicted += b.Evicted
	l.ShedDeadline += b.ShedDeadline
	l.Abandoned += b.Abandoned
	l.Failed += b.Failed
	l.Admitted += b.Admitted
	l.GPUQueries += b.GPUQueries
	l.WorkItems += b.WorkItems
	l.GPUItems += b.GPUItems
	l.Retunes += b.Retunes
	l.DegradeSteps += b.DegradeSteps
	l.Truncated += b.Truncated
	l.FallbackServed += b.FallbackServed
	l.EmbStore = l.EmbStore || b.EmbStore
	l.EmbHits += b.EmbHits
	l.EmbMisses += b.EmbMisses
	l.EmbEvictions += b.EmbEvictions
	l.EmbBytesRead += b.EmbBytesRead
	return l
}

// Conserved reports the conservation identity every quiescent ledger
// satisfies: each submitted query left through exactly one disposition.
func (l Ledger) Conserved() bool {
	return l.Submitted == l.Completed+l.Cancelled+l.Shed+l.ShedDeadline+l.Failed+l.Abandoned
}

// The ledger's ratios are each 0 until their denominator is nonzero, and
// exact over any merge, because they are derived from the summed counts
// rather than averaged.

// GPUQueryShare is the fraction of admitted queries offloaded.
func (l Ledger) GPUQueryShare() float64 { return ratio(l.GPUQueries, l.Admitted) }

// GPUWorkShare is the fraction of admitted candidate-item work offloaded.
func (l Ledger) GPUWorkShare() float64 { return ratio(l.GPUItems, l.WorkItems) }

// EmbHitRate is EmbHits / (EmbHits + EmbMisses).
func (l Ledger) EmbHitRate() float64 { return ratio(l.EmbHits, l.EmbHits+l.EmbMisses) }

// ratio is num / den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
