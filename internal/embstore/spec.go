package embstore

import (
	"fmt"
	"math"
	"strings"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// BackendKind names one of the three row-storage backends.
type BackendKind int

// Supported backends.
const (
	BackendDense BackendKind = iota // rows materialized in memory
	BackendSynth                    // rows recomputed on demand, zero storage
	BackendMmap                     // rows mmap'd from generated table files
)

// String implements fmt.Stringer.
func (k BackendKind) String() string {
	switch k {
	case BackendDense:
		return "dense"
	case BackendSynth:
		return "synth"
	case BackendMmap:
		return "mmap"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// Spec is a parsed embedding-store specification: which backend serves the
// rows and what cache, if any, sits in front of it.
type Spec struct {
	Kind  BackendKind
	Dir   string // table-file directory (mmap only)
	Cache CacheConfig
}

// ParseSpec parses the store grammar shared by the public API and the
// `serve -store` flag:
//
//	dense                      rows materialized in memory (per-row seeded)
//	synth                      rows recomputed on demand (zero storage)
//	mmap:<dir>                 rows mmap'd from `deeprecsys tables gen` files
//
// optionally followed by a hot-row cache layer:
//
//	,cache=lru:<cap>           admit every miss, evict least-recently-used
//	,cache=lfu:<cap>           admit on second touch (frequency doorkeeper)
//
// where <cap> is a row count (plain integer) or a byte budget with a
// KB/MB/GB suffix, e.g. "mmap:/data/tables,cache=lru:64MB" or
// "synth,cache=lfu:200000".
func ParseSpec(spec string) (Spec, error) {
	fields := workload.Fields(spec, ",")
	sp, err := workload.ParseCall("embstore", "store", fields[0], storeForms)
	if err != nil {
		return sp, err
	}
	var cache string
	err = workload.Pairs("embstore", "store option", fields[1:], "=",
		workload.NewKey("cache=lru:<cap>|lfu:<cap>", workload.String(&cache)))
	if err == nil && len(fields) > 1 {
		sp.Cache, err = workload.ParseCall("embstore", "cache", cache, cacheForms)
	}
	if err != nil {
		return sp, err
	}
	return sp, sp.Cache.Validate()
}

var storeForms = []workload.Form[Spec]{
	workload.NewForm("dense", func([]string) (Spec, error) { return Spec{Kind: BackendDense}, nil }),
	workload.NewForm("synth", func([]string) (Spec, error) { return Spec{Kind: BackendSynth}, nil }),
	workload.NewForm("mmap:<dir>", func(args []string) (Spec, error) {
		return Spec{Kind: BackendMmap, Dir: args[0]}, workload.Need(nil, args[0] != "", "a directory, e.g. mmap:/data/tables")
	}, 1),
}

var cacheForms = []workload.Form[CacheConfig]{
	workload.NewForm("lru:<cap>", cacheForm(CacheLRU), 1),
	workload.NewForm("lfu:<cap>", cacheForm(CacheLFUAdmit), 1),
}

// cacheForm builds policy p's config from its capacity argument: a row
// count ("200000") or a byte budget ("64MB").
func cacheForm(p CachePolicy) func([]string) (CacheConfig, error) {
	return func(args []string) (CacheConfig, error) {
		c := CacheConfig{Policy: p}
		num, mult := args[0], int64(0)
		for _, suf := range []struct {
			name string
			mult int64
		}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"B", 1}} {
			if n, ok := strings.CutSuffix(args[0], suf.name); ok {
				num, mult = n, suf.mult
				break
			}
		}
		var v int64
		err := workload.Int(&v, 1)(num)
		if err != nil || mult > 0 && v > math.MaxInt64/mult {
			return c, fmt.Errorf("capacity %q must be a positive row count or a B/KB/MB/GB byte budget that fits 63 bits", args[0])
		}
		if mult == 0 {
			c.Rows = int(v)
		} else {
			c.Bytes = v * mult
		}
		return c, nil
	}
}

// String renders the spec back in grammar form.
func (sp Spec) String() string {
	var b strings.Builder
	b.WriteString(sp.Kind.String())
	if sp.Kind == BackendMmap {
		b.WriteString(":" + sp.Dir)
	}
	if sp.Cache.Policy != CacheNone {
		fmt.Fprintf(&b, ",cache=%s:", sp.Cache.Policy)
		if sp.Cache.Rows > 0 {
			fmt.Fprintf(&b, "%d", sp.Cache.Rows)
		} else {
			fmt.Fprintf(&b, "%dB", sp.Cache.Bytes)
		}
	}
	return b.String()
}

// Open builds the store for shard's slice of table `table` at the given
// geometry under base seed `seed`, layering the configured cache on top.
// For mmap it resolves the canonical FilePath under Dir and validates the
// file's header against every requested coordinate, so a stale file from a
// different seed or geometry fails loudly instead of serving wrong rows.
func (sp Spec) Open(seed int64, table, rows, dim int, shard Shard) (Store, error) {
	var (
		st  Store
		err error
	)
	switch sp.Kind {
	case BackendDense:
		st, err = NewDense(seed, table, rows, dim, shard)
	case BackendSynth:
		st, err = NewSynth(seed, table, rows, dim, shard)
	case BackendMmap:
		path := FilePath(sp.Dir, seed, table, rows, dim, shard)
		var m *Mapped
		m, err = OpenMapped(path)
		if err != nil {
			err = fmt.Errorf("%w (generate with: deeprecsys tables gen)", err)
			break
		}
		lo, count := shard.Range(rows)
		h := m.Header()
		if h.Seed != seed || h.Table != table || h.Rows != rows || h.Dim != dim || h.Lo != lo || h.Count != count {
			m.Close()
			err = fmt.Errorf("embstore: %s holds table %d seed %d rows %d dim %d [%d+%d), want table %d seed %d rows %d dim %d [%d+%d) — regenerate with deeprecsys tables gen",
				path, h.Table, h.Seed, h.Rows, h.Dim, h.Lo, h.Count, table, seed, rows, dim, lo, count)
			break
		}
		st = m
	default:
		err = fmt.Errorf("embstore: unknown backend kind %d", int(sp.Kind))
	}
	if err != nil {
		return nil, err
	}
	if sp.Cache.Policy == CacheNone {
		return st, nil
	}
	c, err := NewCached(st, sp.Cache)
	if err != nil {
		st.Close()
		return nil, err
	}
	return c, nil
}
