// Embedding tier at scale: serve a DLRM model whose tables are far too
// large to materialize in memory. The classic in-memory zoo caps tables at
// 10^4 rows; here the same model serves 10^7-row tables through the
// pluggable embedding store (internal/embstore) — a synthetic backing store
// that recomputes any row from its coordinates (zero storage, models "the
// row lives somewhere slow") fronted by an LRU hot-row cache. Skewed Zipf
// access concentrates traffic on the hot rows, so a cache holding 2% of the
// rows absorbs >90% of lookups — the working-set argument DeepRecSys makes
// for why at-scale embedding tables are servable at all.
//
// The second half shows the mmap backend at small scale: the tables are
// materialized once as files (the programmatic twin of `deeprecsys tables
// gen`) and the model serves rows straight out of the page cache through
// the same Store interface and cache layer.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

func main() {
	rows := flag.Int("rows", 10_000_000, "rows per embedding table")
	cacheRows := flag.Int("cache", 200_000, "hot-row cache capacity (rows)")
	alpha := flag.Float64("alpha", 1.2, "Zipf skew of the index stream")
	queries := flag.Int("n", 300, "queries to serve")
	flag.Parse()

	// --- Part 1: 10^7-row tables, synthetic backing store + LRU cache ---
	cfg, err := model.ByName("DLRM-RMC1")
	if err != nil {
		log.Fatal(err)
	}
	denseBytes := float64(cfg.NumTables) * float64(*rows) * float64(cfg.EmbDim) * 4
	fmt.Printf("DLRM-RMC1 with %d tables x %d rows x dim %d: %.1f GB dense — not materialized\n",
		cfg.NumTables, *rows, cfg.EmbDim, denseBytes/(1<<30))

	spec := fmt.Sprintf("synth,cache=lru:%d", *cacheRows)
	sys, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake",
		deeprecsys.WithTableScale(*rows, 0),
		deeprecsys.WithEmbeddingStore(spec))
	if err != nil {
		log.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Workers:   2,
		BatchSize: 64,
		Access:    fmt.Sprintf("zipf:%.2f", *alpha),
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < *queries; i++ {
		if _, err := svc.Submit(ctx, 64, 0); err != nil {
			log.Fatal(err)
		}
	}
	st := svc.Stats()
	fmt.Printf("served %d queries against %q with zipf:%.2f access:\n", st.Completed, spec, *alpha)
	fmt.Printf("  %d lookups, %.1f%% cache hit rate, %d evictions\n",
		st.EmbHits+st.EmbMisses, st.EmbHitRate*100, st.EmbEvictions)
	fmt.Printf("  %.1f MB read from the backing store (vs %.1f GB to materialize)\n",
		float64(st.EmbBytesRead)/(1<<20), denseBytes/(1<<30))
	svc.Close()
	sys.Close()

	// --- Part 2: mmap'd table files at small scale ---
	dir, err := os.MkdirTemp("", "deeprecsys-tables")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const (
		seed     = 1 // must match the serving system's seed
		mmapRows = 5000
	)
	ncf, err := model.ByName("NCF")
	if err != nil {
		log.Fatal(err)
	}
	ncf, err = ncf.WithTableScale(mmapRows, 0)
	if err != nil {
		log.Fatal(err)
	}
	var onDisk int64
	for t := 0; t < ncf.NumTables; t++ {
		path, err := embstore.Generate(dir, seed, t, ncf.TableRows, ncf.EmbDim, embstore.Shard{}, nil)
		if err != nil {
			log.Fatal(err)
		}
		if info, err := os.Stat(path); err == nil {
			onDisk += info.Size()
		}
	}
	fmt.Printf("\ngenerated %d NCF table files (%.1f MB) in %s\n", ncf.NumTables, float64(onDisk)/(1<<20), dir)

	msys, err := deeprecsys.NewSystem("NCF", "skylake",
		deeprecsys.WithTableScale(mmapRows, 0),
		deeprecsys.WithEmbeddingStore("mmap:"+dir+",cache=lru:500"))
	if err != nil {
		log.Fatal(err)
	}
	defer msys.Close()
	msvc, err := msys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 32, Access: "zipf:1.1"})
	if err != nil {
		log.Fatal(err)
	}
	defer msvc.Close()
	for i := 0; i < 100; i++ {
		if _, err := msvc.Submit(ctx, 32, 0); err != nil {
			log.Fatal(err)
		}
	}
	mst := msvc.Stats()
	fmt.Printf("served %d queries from the mmap'd files: %.1f%% hit rate, %.1f MB read through the mapping\n",
		mst.Completed, mst.EmbHitRate*100, float64(mst.EmbBytesRead)/(1<<20))
}
