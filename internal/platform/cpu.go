// Package platform provides the hardware performance models that substitute
// for the paper's testbed (dual-socket Intel Broadwell/Skylake servers and a
// GTX 1080Ti-class accelerator; see docs/DESIGN.md's substitution table). The
// models are analytical: they convert a model.Profile's per-item FLOP and
// byte counts into service times using the four mechanisms the paper
// identifies as decisive for recommendation inference:
//
//  1. SIMD efficiency grows with batch size and saturates — later but higher
//     on AVX-512 (Skylake) than AVX-2 (Broadwell), so Skylake prefers larger
//     batches for MLP-heavy models while Broadwell peaks lower.
//  2. Embedding gathers are DRAM-bandwidth-bound; aggregate chip bandwidth
//     is shared by active cores, so splitting an embedding-heavy query
//     across more cores does not make the gathers finish sooner.
//  3. Cache contention rises with the number of concurrently active cores,
//     and more steeply on Broadwell's inclusive L2/L3 hierarchy than on
//     Skylake's exclusive one (paper Section VI-A).
//  4. Per-request dispatch overhead penalizes very small batches.
//
// Recurrent (GRU) work is modeled as batch-insensitive low-rate compute: it
// serializes over sequence positions and gains nothing from SIMD batching.
package platform

import (
	"fmt"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// CPU describes one server-class processor and its cost-model parameters.
type CPU struct {
	Name  string
	Cores int
	// TDPWatts is the package thermal design power used for QPS/W.
	TDPWatts float64

	// PeakCoreGFLOPs is the effective per-core GEMM rate at full SIMD
	// utilization (already discounted from theoretical peak to a realistic
	// library efficiency).
	PeakCoreGFLOPs float64
	// SIMDHalfBatch is the batch size at which the batch-dependent part of
	// SIMD efficiency reaches 50%: eff(b) = MinSIMDEff +
	// (1-MinSIMDEff)·b/(b+SIMDHalfBatch). Wider vector units need larger
	// batches to fill (AVX-512 > AVX-2).
	SIMDHalfBatch float64
	// MinSIMDEff is the efficiency floor at batch 1: even unit batches
	// vectorize within a single item's GEMV. Narrow-vector Broadwell
	// retains a higher floor than AVX-512 Skylake.
	MinSIMDEff float64

	// AttnEff and GRUEff are fixed fractions of PeakCoreGFLOPs achieved by
	// attention scorers (small per-item GEMMs) and recurrent cells (serial
	// GEMV chains) respectively.
	AttnEff float64
	GRUEff  float64

	// CoreGatherGBs is the single-core embedding-gather bandwidth ceiling;
	// GatherHalfBatch is the batch at which a core reaches 50% of the
	// batch-dependent headroom (more outstanding misses overlap at larger
	// batches), above the MinGatherEff floor.
	CoreGatherGBs   float64
	GatherHalfBatch float64
	MinGatherEff    float64
	// ChipBWGBs is the aggregate *effective gather* bandwidth shared by all
	// active cores: random embedding-row reads achieve a fraction of peak
	// channel bandwidth (partial cache lines, NUMA interleaving, TLB
	// pressure on tens-of-GB tables).
	ChipBWGBs float64
	// PeakDRAMGBs is the package's peak streaming DRAM bandwidth, used for
	// roofline placement (not achievable by random gathers).
	PeakDRAMGBs float64
	// StreamGBs is per-core streaming (sequential) bandwidth for dense
	// feature input, cheaper than gathers.
	StreamGBs float64

	// InclusiveLLC marks an inclusive L2/L3 hierarchy; ContentionAlpha is
	// the compute-time penalty when every core is active. The penalty also
	// scales with a batch-dependent cache factor: small batches interleave
	// many independent requests across cores, and on an inclusive
	// hierarchy the cross-core back-invalidations evict shared MLP weights
	// — the paper measures 55% L2 misses at batch 16 versus 40% at 1024 on
	// Broadwell. The multiplier is
	// 1 + ContentionAlpha·(active-1)/(Cores-1)·2·CacheHalfBatch/(batch+CacheHalfBatch).
	InclusiveLLC    bool
	ContentionAlpha float64
	CacheHalfBatch  float64

	// DispatchOverhead is the fixed per-request framework cost (queue pop,
	// operator graph setup, output handling).
	DispatchOverhead time.Duration
}

// CPUByName returns the CPU a platform name selects: "skylake" or
// "broadwell".
func CPUByName(name string) (*CPU, error) {
	switch name {
	case "skylake":
		return Skylake(), nil
	case "broadwell":
		return Broadwell(), nil
	}
	return nil, fmt.Errorf("unknown platform %q (have skylake, broadwell)", name)
}

// Broadwell returns the paper's Intel Broadwell configuration: 28 cores at
// 2.4 GHz with AVX-2 and an inclusive L2/L3 hierarchy, TDP 120 W.
func Broadwell() *CPU {
	return &CPU{
		Name:             "broadwell",
		Cores:            28,
		TDPWatts:         120,
		PeakCoreGFLOPs:   30,
		SIMDHalfBatch:    20,
		MinSIMDEff:       0.25,
		AttnEff:          0.35,
		GRUEff:           0.08,
		CoreGatherGBs:    2.0,
		GatherHalfBatch:  72,
		MinGatherEff:     0.25,
		ChipBWGBs:        8,
		PeakDRAMGBs:      60,
		StreamGBs:        12,
		InclusiveLLC:     true,
		ContentionAlpha:  0.55,
		CacheHalfBatch:   256,
		DispatchOverhead: 50 * time.Microsecond,
	}
}

// Skylake returns the paper's Intel Skylake configuration: 40 cores at
// 2.0 GHz with AVX-512 and an exclusive L2/L3 hierarchy, TDP 125 W.
func Skylake() *CPU {
	return &CPU{
		Name:             "skylake",
		Cores:            40,
		TDPWatts:         125,
		PeakCoreGFLOPs:   48,
		SIMDHalfBatch:    64,
		MinSIMDEff:       0.15,
		AttnEff:          0.35,
		GRUEff:           0.08,
		CoreGatherGBs:    2.5,
		GatherHalfBatch:  96,
		MinGatherEff:     0.25,
		ChipBWGBs:        12,
		PeakDRAMGBs:      100,
		StreamGBs:        14,
		InclusiveLLC:     false,
		ContentionAlpha:  0.15,
		CacheHalfBatch:   256,
		DispatchOverhead: 50 * time.Microsecond,
	}
}

// simdEff returns the SIMD utilization at the given batch size in (0, 1].
func (c *CPU) simdEff(batch int) float64 {
	b := float64(batch)
	return c.MinSIMDEff + (1-c.MinSIMDEff)*b/(b+c.SIMDHalfBatch)
}

// gatherEff returns the single-core gather-bandwidth utilization at the
// given batch size in (0, 1].
func (c *CPU) gatherEff(batch int) float64 {
	b := float64(batch)
	return c.MinGatherEff + (1-c.MinGatherEff)*b/(b+c.GatherHalfBatch)
}

// contention returns the compute-time multiplier for the given number of
// concurrently active cores at the given per-request batch size. Smaller
// batches worsen cross-core cache interference (see ContentionAlpha).
func (c *CPU) contention(active, batch int) float64 {
	if active <= 1 || c.Cores <= 1 {
		return 1
	}
	if active > c.Cores {
		active = c.Cores
	}
	cacheFactor := 2 * c.CacheHalfBatch / (float64(batch) + c.CacheHalfBatch)
	return 1 + float64(c.ContentionAlpha*float64(active-1)/float64(c.Cores-1)*cacheFactor)
}

// Breakdown decomposes one request's service time by operator group. It is
// both the integrand of RequestTime and the data behind the operator
// breakdown characterization (paper Fig. 3).
type Breakdown struct {
	MLP       time.Duration // dense + predictor GEMMs (incl. contention)
	Attention time.Duration // attention scorers (incl. contention)
	GRU       time.Duration // recurrent work
	Embedding time.Duration // embedding gathers
	Dense     time.Duration // dense feature streaming
	Overhead  time.Duration // per-request dispatch cost
}

// Total returns the summed service time.
func (b Breakdown) Total() time.Duration {
	return b.MLP + b.Attention + b.GRU + b.Embedding + b.Dense + b.Overhead
}

// RequestBreakdown returns the per-operator-group service time of one
// request of the given batch size on one core, with `active` cores
// concurrently busy chip-wide.
func (c *CPU) RequestBreakdown(p model.Profile, batch, active int) Breakdown {
	if batch <= 0 {
		panic(fmt.Sprintf("platform: batch must be positive, got %d", batch))
	}
	if active < 1 {
		active = 1
	}
	b := float64(batch)
	cont := c.contention(active, batch)

	// Batch-friendly GEMM work at SIMD efficiency, inflated by contention.
	mlpSec := b * float64(p.MLPFLOPs()) / (c.PeakCoreGFLOPs * 1e9 * c.simdEff(batch)) * cont
	attnSec := b * float64(p.AttnFLOPs) / (c.PeakCoreGFLOPs * 1e9 * c.AttnEff) * cont

	// Recurrent work: fixed low rate, no batch benefit, no extra
	// contention (its working set is tiny).
	gruSec := b * float64(p.GRUFLOPs) / (c.PeakCoreGFLOPs * 1e9 * c.GRUEff)

	// Embedding gathers: the available bandwidth is the smaller of the
	// core's own ceiling and its share of chip bandwidth, and only a
	// batch-dependent fraction of it is realized — larger batches expose
	// more outstanding misses, which is precisely why the paper finds
	// embedding-heavy models optimized at batch sizes up to 1024.
	var embSec float64
	if p.EmbBytes > 0 {
		bw := c.CoreGatherGBs * 1e9
		if share := c.ChipBWGBs * 1e9 / float64(active); share < bw {
			bw = share
		}
		embSec = b * float64(p.EmbBytes) / (bw * c.gatherEff(batch))
	}

	// Dense feature streaming.
	var denseSec float64
	if p.DenseBytes > 0 {
		denseSec = b * float64(p.DenseBytes) / (c.StreamGBs * 1e9)
	}

	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return Breakdown{
		MLP:       sec(mlpSec),
		Attention: sec(attnSec),
		GRU:       sec(gruSec),
		Embedding: sec(embSec),
		Dense:     sec(denseSec),
		Overhead:  c.DispatchOverhead,
	}
}

// RequestTime returns the service time of one request of the given batch
// size on one core, with `active` cores concurrently busy chip-wide. It is
// the core primitive of the discrete-event serving simulation.
func (c *CPU) RequestTime(p model.Profile, batch, active int) time.Duration {
	return c.RequestBreakdown(p, batch, active).Total()
}

// ItemTime returns the per-item service time at the given batch size and
// active-core count: RequestTime divided by the batch. Characterization
// experiments use it to show batching efficiency curves.
func (c *CPU) ItemTime(p model.Profile, batch, active int) time.Duration {
	return c.RequestTime(p, batch, active) / time.Duration(batch)
}

// StaticBatch returns the production baseline's fixed batch size: the
// largest query split evenly over all cores (paper Section V: 1000/40 = 25
// on Skylake).
func (c *CPU) StaticBatch(maxQuerySize int) int {
	b := (maxQuerySize + c.Cores - 1) / c.Cores
	if b < 1 {
		b = 1
	}
	return b
}
