package main

import (
	"flag"
	"fmt"

	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// modelsMain lists the zoo with each model's per-item resource shape —
// where its work goes, FC FLOPs versus embedding-gather bytes — so an
// operator can pick complementary co-location pairings (an FC-heavy tenant
// beside an embedding-heavy one) before binding tenants onto one shared
// fleet. The shape column is model.Shapes over the zoo, the rule the
// fleet's shape-spread placement policy keys on.
func modelsMain(args []string) {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	rows := fs.Int("rows", 0, "embedding-table rows per table for the table-size column (0 = the zoo default, 10^4)")
	lookups := fs.Int("lookups", 0, "embedding lookups per table per item (0 = the model's default)")
	fs.Parse(args)

	names := model.ZooNames()
	cfgs := make([]model.Config, len(names))
	profs := make([]model.Profile, len(names))
	for i, name := range names {
		cfg, err := model.ByName(name)
		if err != nil {
			fail(1, err)
		}
		if (*rows != 0 || *lookups != 0) && cfg.NumTables > 0 {
			cfg, err = cfg.WithTableScale(*rows, *lookups)
			if err != nil {
				fail(1, err)
			}
		}
		cfgs[i] = cfg
		profs[i] = model.BuildProfile(cfg)
	}
	shapes := model.Shapes(profs)

	fmt.Printf("%-10s %-20s %9s %12s %12s %13s %12s %8s\n",
		"model", "class", "sla", "flops/item", "embB/item", "shape(fc/emb)", "tablebytes", "tables")
	for i, name := range names {
		cfg, p := cfgs[i], profs[i]
		tableBytes := int64(cfg.NumTables) * int64(cfg.TableRows) * int64(cfg.EmbDim) * 4
		fmt.Printf("%-10s %-20s %9v %12d %12d %6.0f%%/%4.0f%% %12s %8d\n",
			name, cfg.Class.String(), cfg.SLAMedium, p.TotalFLOPs(), p.EmbBytes,
			shapes[i][0]*100, shapes[i][1]*100, humanBytes(tableBytes), cfg.NumTables)
	}
	if *rows != 0 {
		fmt.Printf("table bytes at %d rows/table (override); lookups/table", *rows)
	} else {
		fmt.Printf("table bytes at the zoo-default geometry; lookups/table")
	}
	if *lookups != 0 {
		fmt.Printf(" overridden to %d\n", *lookups)
	} else {
		fmt.Printf(" at model defaults\n")
	}
}

// humanBytes renders a byte count with a binary-unit suffix.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
