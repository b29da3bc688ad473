package workload

import (
	"fmt"
	"math/rand"
)

// Skewed sparse-index access: which embedding rows queries actually touch.
// The paper's memory-tier argument rests on production traffic being highly
// skewed — a small hot set of popular items absorbs most lookups, which is
// what makes a hot-row cache over an at-scale table effective. An IndexDist
// describes that popularity curve; the live executor binds one IndexSource
// per worker (sources share the worker's rng and are not goroutine-safe)
// and the model consumes one draw per lookup. Uniform access is the classic
// default — and doubles as the cache-thrash scenario once tables dwarf the
// cache — while a cold start is simply a cache observed from its first
// query, expressible as any scenario without a warmup phase.

// IndexSource yields one embedding row index per Next call, in [0, rows)
// for the rows it was bound to. It satisfies model.IndexSource.
type IndexSource interface {
	Next() int
}

// IndexDist is a row-popularity distribution. Source binds it to an rng and
// a row count; the same seed and rows give a deterministic draw sequence.
type IndexDist interface {
	Source(rng *rand.Rand, rows int) IndexSource
	Name() string
}

// UniformAccess draws every row with equal probability — the classic
// default. Its Source is a literal rng.Intn per lookup; the live service
// strips it to a nil sampler, which its lanes serve by a bulk uniform fill.
type UniformAccess struct{}

// Name implements IndexDist.
func (UniformAccess) Name() string { return "uniform" }

// Source implements IndexDist.
func (UniformAccess) Source(rng *rand.Rand, rows int) IndexSource {
	return uniformSource{rng: rng, rows: rows}
}

type uniformSource struct {
	rng  *rand.Rand
	rows int
}

func (u uniformSource) Next() int { return u.rng.Intn(u.rows) }

// ZipfAccess draws rows Zipf-distributed: row k is drawn with probability
// proportional to (V+k)^-S, so low-numbered rows are the hot set. S > 1
// steepens the skew (S around 1.2 is a reasonable stand-in for production
// item popularity); V >= 1 flattens the very head.
type ZipfAccess struct {
	S float64
	V float64
}

// Name implements IndexDist.
func (z ZipfAccess) Name() string {
	if z.V == 1 {
		return fmt.Sprintf("zipf:%g", z.S)
	}
	return fmt.Sprintf("zipf:%g,%g", z.S, z.V)
}

// Source implements IndexDist.
func (z ZipfAccess) Source(rng *rand.Rand, rows int) IndexSource {
	return zipfSource{z: rand.NewZipf(rng, z.S, z.V, uint64(rows-1))}
}

type zipfSource struct{ z *rand.Zipf }

func (s zipfSource) Next() int { return int(s.z.Uint64()) }

// ParseAccess parses an access-distribution spec:
//
//	uniform              every row equally likely (default)
//	zipf                 Zipf skew with s=1.2, v=1
//	zipf:<s>             Zipf skew with the given s (> 1)
//	zipf:<s>,<v>         Zipf skew with the given s (> 1) and v (>= 1)
func ParseAccess(spec string) (IndexDist, error) {
	return ParseCall("workload", "access distribution", spec, accessForms)
}

var accessForms = []Form[IndexDist]{
	NewForm("uniform", func([]string) (IndexDist, error) { return UniformAccess{}, nil }),
	NewForm("zipf[:<s>[,<v>]]", func(a []string) (IndexDist, error) {
		z := ZipfAccess{S: 1.2, V: 1}
		err := Args(a, Float(&z.S), Float(&z.V))
		return z, Need(err, z.S > 1 && z.V >= 1, "s > 1 and v >= 1")
	}, 0, 1, 2),
}
