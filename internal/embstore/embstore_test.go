package embstore

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

func TestShardRangesCoverDisjoint(t *testing.T) {
	for _, rows := range []int{1, 7, 100, 1000003} {
		for _, count := range []int{1, 2, 3, 7, 16} {
			if count > rows {
				continue
			}
			next := 0
			for i := 0; i < count; i++ {
				sh := Shard{Index: i, Count: count}
				if err := sh.Validate(); err != nil {
					t.Fatalf("Validate(%v): %v", sh, err)
				}
				lo, n := sh.Range(rows)
				if lo != next {
					t.Fatalf("rows=%d count=%d shard %d starts at %d, want %d (gap or overlap)", rows, count, i, lo, next)
				}
				if n <= 0 {
					t.Fatalf("rows=%d count=%d shard %d is empty", rows, count, i)
				}
				next = lo + n
			}
			if next != rows {
				t.Fatalf("rows=%d count=%d shards cover [0,%d), want [0,%d)", rows, count, next, rows)
			}
		}
	}
	for _, sh := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}, {Index: 1, Count: 0}} {
		if err := sh.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted invalid shard", sh)
		}
	}
}

// All per-row-seeded backends must produce bitwise-identical rows at the
// same coordinates — including shards, whose local rows must equal the
// corresponding slice of the full table.
func TestBackendsBitIdentical(t *testing.T) {
	const (
		seed  = int64(42)
		table = 3
		rows  = 257
		dim   = 12
	)
	dir := t.TempDir()

	full, err := NewDense(seed, table, rows, dim, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := NewSynth(seed, table, rows, dim, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(dir, seed, table, rows, dim, Shard{}, nil); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(FilePath(dir, seed, table, rows, dim, Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	cached, err := NewCached(synth, CacheConfig{Policy: CacheLRU, Rows: 32})
	if err != nil {
		t.Fatal(err)
	}

	stores := map[string]Store{"synth": synth, "mmap": mapped, "cached": cached}
	for i := 0; i < rows; i++ {
		want := full.Row(i)
		for name, st := range stores {
			got := st.Row(i)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s row %d col %d = %x, dense says %x", name, i, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		}
	}

	// Shard files hold exactly their slice of the full table.
	const nshards = 3
	for s := 0; s < nshards; s++ {
		sh := Shard{Index: s, Count: nshards}
		if _, err := Generate(dir, seed, table, rows, dim, sh, nil); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(FilePath(dir, seed, table, rows, dim, sh))
		if err != nil {
			t.Fatal(err)
		}
		lo, n := sh.Range(rows)
		if m.Lo() != lo || m.Rows() != n {
			t.Fatalf("shard %v maps [%d+%d), want [%d+%d)", sh, m.Lo(), m.Rows(), lo, n)
		}
		for i := 0; i < n; i++ {
			got, want := m.Row(i), full.Row(lo+i)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("shard %v local row %d differs from full row %d", sh, i, lo+i)
				}
			}
		}
		m.Close()
	}
}

// The stream-seeded construction must reproduce the classic zoo draw order:
// the same rng state that feeds tensor.RandNormal inside nn.NewEmbeddingTable.
func TestStreamSeededMatchesClassicStream(t *testing.T) {
	const rows, dim = 83, 16
	want := tensor.RandNormal(rand.New(rand.NewSource(7)), rows, dim, EmbStddev)

	dense := NewDenseStream(rand.New(rand.NewSource(7)), rows, dim)
	path := filepath.Join(t.TempDir(), "stream.emb")
	if err := WriteFileStream(path, rand.New(rand.NewSource(7)), 7, 0, rows, dim); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	for i := 0; i < rows; i++ {
		wr := want.Row(i)
		for _, st := range []Store{dense, mapped} {
			got := st.Row(i)
			for j := range wr {
				if math.Float32bits(got[j]) != math.Float32bits(wr[j]) {
					t.Fatalf("row %d col %d = %x, RandNormal stream says %x", i, j, math.Float32bits(got[j]), math.Float32bits(wr[j]))
				}
			}
		}
	}
}

func TestOpenValidatesHeader(t *testing.T) {
	dir := t.TempDir()
	if _, err := Generate(dir, 1, 0, 64, 8, Shard{}, nil); err != nil {
		t.Fatal(err)
	}
	sp := Spec{Kind: BackendMmap, Dir: dir}
	if _, err := sp.Open(1, 0, 64, 8, Shard{}); err != nil {
		t.Fatalf("matching open: %v", err)
	}
	// Wrong seed resolves to a missing file; a renamed stale file with the
	// wrong header must be rejected too.
	if _, err := sp.Open(2, 0, 64, 8, Shard{}); err == nil {
		t.Fatal("open with wrong seed succeeded")
	}
	stale := FilePath(dir, 9, 0, 64, 8, Shard{})
	if err := copyFile(t, FilePath(dir, 1, 0, 64, 8, Shard{}), stale); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Open(9, 0, 64, 8, Shard{}); err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("stale-header open: got %v, want header mismatch", err)
	}
}

// Mmap smoke under the race detector: many goroutines reading a
// temp-generated table file through a shared cache.
func TestMappedConcurrentSmoke(t *testing.T) {
	const (
		seed = int64(5)
		rows = 4096
		dim  = 8
	)
	dir := t.TempDir()
	if _, err := Generate(dir, seed, 0, rows, dim, Shard{}, nil); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(FilePath(dir, seed, 0, rows, dim, Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewCached(mapped, CacheConfig{Policy: CacheLRU, Rows: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const (
		workers = 8
		reads   = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ref := make([]float32, dim)
			for k := 0; k < reads; k++ {
				i := rng.Intn(rows)
				got := st.Row(i)
				FillRow(ref, seed, 0, i)
				for j := range ref {
					if math.Float32bits(got[j]) != math.Float32bits(ref[j]) {
						t.Errorf("worker %d read wrong row %d", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := st.Stats()
	if s.Hits+s.Misses != workers*reads {
		t.Fatalf("hits %d + misses %d != %d reads", s.Hits, s.Misses, workers*reads)
	}
	if s.ResidentRows > s.CapacityRows {
		t.Fatalf("resident %d exceeds capacity %d", s.ResidentRows, s.CapacityRows)
	}
	if s.BytesRead != s.Misses*uint64(dim)*4 {
		t.Fatalf("BytesRead %d, want misses*%d = %d", s.BytesRead, dim*4, s.Misses*uint64(dim)*4)
	}
}

func TestCacheLRUEvictsAndCounts(t *testing.T) {
	base, err := NewSynth(1, 0, 100, 4, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	// Small capacity keeps a single segment, making eviction deterministic.
	c, err := NewCached(base, CacheConfig{Policy: CacheLRU, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.segs) != 1 {
		t.Fatalf("capacity 4 built %d segments, want 1", len(c.segs))
	}
	for _, i := range []int{0, 1, 2, 3} {
		c.Row(i)
	}
	c.Row(0) // 0 is now MRU
	c.Row(4) // evicts 1 (LRU)
	c.Row(1) // miss again
	st := c.Stats()
	if st.Misses != 6 || st.Hits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/6", st.Hits, st.Misses)
	}
	if st.Evictions != 2 { // rows 1 then 2 displaced
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.ResidentRows != 4 || st.CapacityRows != 4 {
		t.Fatalf("resident/capacity = %d/%d, want 4/4", st.ResidentRows, st.CapacityRows)
	}
}

func TestCacheFrequencyAdmission(t *testing.T) {
	base, err := NewSynth(1, 0, 100, 4, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(base, CacheConfig{Policy: CacheLFUAdmit, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Row(7) // first touch: served through, not admitted
	if st := c.Stats(); st.Admitted != 0 || st.ResidentRows != 0 {
		t.Fatalf("one-touch row admitted: %+v", st)
	}
	c.Row(7) // second touch: admitted
	if st := c.Stats(); st.Admitted != 1 || st.ResidentRows != 1 {
		t.Fatalf("second touch not admitted: %+v", st)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("admission counted as hit: %+v", st)
	}
	c.Row(7) // now a hit
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("resident row missed: %+v", st)
	}
	// A scan of one-touch rows must not displace the hot row.
	for i := 10; i < 90; i++ {
		c.Row(i)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("scan evicted under admission filter: %+v", st)
	}
	c.Row(7)
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("hot row lost after scan: %+v", st)
	}
}

func TestCacheByteCapacity(t *testing.T) {
	base, err := NewSynth(1, 0, 1000, 32, Shard{}) // 128 B/row
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(base, CacheConfig{Policy: CacheLRU, Bytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.CapacityRows(), (64<<10)/128; got != want {
		t.Fatalf("64KB over 128B rows = %d rows capacity, want %d", got, want)
	}
	for i := 0; i < 1000; i++ {
		c.Row(i)
	}
	if st := c.Stats(); st.ResidentRows > st.CapacityRows {
		t.Fatalf("resident %d exceeds byte-derived capacity %d", st.ResidentRows, st.CapacityRows)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Policy: CacheLRU},                      // no capacity
		{Policy: CacheLRU, Rows: 10, Bytes: 10}, // both capacities
		{Policy: CacheNone, Rows: 10},           // capacity without policy
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
	}
	if err := (CacheConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// Satellite requirement: higher access skew must mean a higher cache hit
// rate at fixed capacity — the memory-tier effect the paper's hot-row
// locality argument rests on.
func TestCacheHitRateMonotonicVsSkew(t *testing.T) {
	const (
		rows  = 100000
		dim   = 8
		capac = 2000
		draws = 150000
	)
	hitRate := func(s float64) float64 {
		base, err := NewSynth(1, 0, rows, dim, Shard{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCached(base, CacheConfig{Policy: CacheLRU, Rows: capac})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		z := rand.NewZipf(rng, s, 1, rows-1)
		for k := 0; k < draws; k++ {
			c.Row(int(z.Uint64()))
		}
		return c.Stats().HitRate()
	}
	skews := []float64{1.1, 1.5, 2.0}
	rates := make([]float64, len(skews))
	for i, s := range skews {
		rates[i] = hitRate(s)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("hit rate not monotone in skew: s=%v -> %v", skews, rates)
		}
	}
	if rates[0] < 0.2 || rates[len(rates)-1] < 0.9 {
		t.Fatalf("implausible hit rates for zipf traffic: s=%v -> %v", skews, rates)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"dense", Spec{Kind: BackendDense}},
		{"synth", Spec{Kind: BackendSynth}},
		{"mmap:/data/t", Spec{Kind: BackendMmap, Dir: "/data/t"}},
		{"synth,cache=lru:200000", Spec{Kind: BackendSynth, Cache: CacheConfig{Policy: CacheLRU, Rows: 200000}}},
		{"mmap:/d,cache=lfu:64MB", Spec{Kind: BackendMmap, Dir: "/d", Cache: CacheConfig{Policy: CacheLFUAdmit, Bytes: 64 << 20}}},
		{"dense,cache=lru:16KB", Spec{Kind: BackendDense, Cache: CacheConfig{Policy: CacheLRU, Bytes: 16 << 10}}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if rt, err := ParseSpec(got.String()); err != nil || rt != got {
			t.Errorf("round trip of %q via %q = %+v (%v)", c.in, got.String(), rt, err)
		}
	}
	for _, in := range []string{
		"", "disk", "mmap:", "synth,cache=", "synth,cache=lru", "synth,cache=arc:100",
		"synth,cache=lru:0", "synth,cache=lru:-5", "synth,cache=lru:10TB", "synth,shard=2",
		"synth,cache=lru:21474836480GB", // 2^64+ bytes: must not wrap into an accepted budget
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", in)
		}
	}
}

func copyFile(t *testing.T, src, dst string) error {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
