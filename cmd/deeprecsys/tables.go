package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// tablesMain handles the `deeprecsys tables` subcommands. `tables gen`
// materializes a zoo model's embedding tables as mmap-ready files: one file
// per table (per shard with -shards), deterministic in the seed, so a
// serving host regenerates byte-identical tables from the coordinates
// alone. The files pair with `serve -store mmap:<dir>`.
func tablesMain(args []string) {
	if len(args) < 1 || args[0] != "gen" {
		fail(2, "usage: deeprecsys tables gen -model <name> -dir <dir> [-rows N] [-seed S] [-shards K]")
	}
	fs := flag.NewFlagSet("tables gen", flag.ExitOnError)
	modelName := fs.String("model", "NCF", "zoo model whose tables to materialize")
	dir := fs.String("dir", "", "output directory for the table files (required)")
	rows := fs.Int("rows", 0, "rows per table (0 = the zoo default, 10^4)")
	seed := fs.Int64("seed", 1, "random seed; must match the serving system's -seed")
	shards := fs.Int("shards", 1, "split each table's rows into this many shard files (for -shard-tables fleets)")
	fs.Parse(args[1:])

	if *dir == "" {
		fail(2, "tables gen: -dir is required")
	}
	if *shards < 1 {
		fail(2, "tables gen: -shards must be >= 1")
	}
	cfg, err := model.ByName(*modelName)
	if err != nil {
		fail(2, "tables gen:", err)
	}
	cfg, err = cfg.WithTableScale(*rows, 0)
	if err != nil {
		fail(2, "tables gen:", err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(2, "tables gen:", err)
	}

	perTable := int64(cfg.TableRows) * int64(cfg.EmbDim) * 4
	fmt.Printf("generating %d tables x %d shard(s) for %s: %d rows x dim %d (%.1f MB per table), seed %d\n",
		cfg.NumTables, *shards, cfg.Name, cfg.TableRows, cfg.EmbDim, float64(perTable)/(1<<20), *seed)
	start := time.Now()
	var written int64
	for t := 0; t < cfg.NumTables; t++ {
		for p := 0; p < *shards; p++ {
			shard := embstore.Shard{}
			if *shards > 1 {
				shard = embstore.Shard{Index: p, Count: *shards}
			}
			path, err := embstore.Generate(*dir, *seed, t, cfg.TableRows, cfg.EmbDim, shard, func(done, total int) {
				fmt.Printf("\r  table %d/%d shard %d/%d: %3.0f%%", t+1, cfg.NumTables, p+1, *shards, 100*float64(done)/float64(total))
			})
			if err != nil {
				fail(1, fmt.Sprintf("\ntables gen: table %d shard %d: %v", t, p, err))
			}
			info, err := os.Stat(path)
			if err == nil {
				written += info.Size()
			}
			fmt.Printf("\r  %s\n", path)
		}
	}
	fmt.Printf("wrote %.1f MB in %v\n", float64(written)/(1<<20), time.Since(start).Round(time.Millisecond))
}
