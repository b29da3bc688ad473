package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads a result file: one JSON record per run, as appendRecord
// writes them.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var rec record
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
}

// pairKey names one (workload, metric) pairing.
type pairKey struct{ workload, metric string }

// valuesOf gathers, per pairing, the values of every run in recs of the
// given pass. End-to-end numbers come only from the untraced pass,
// per-layer numbers only from the traced one.
func valuesOf(recs []record, traced bool) map[pairKey][]float64 {
	out := make(map[pairKey][]float64)
	for _, rec := range recs {
		if rec.Trace != traced {
			continue
		}
		for name, m := range rec.Metrics {
			k := pairKey{rec.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// verdict compares one end-to-end pairing: base and change are the two
// sides' values over their runs. It returns the change's median over the
// base's, and ok, worse or unresolved. The pairing is unresolved when
// either side's run-to-run spread is wider than the bound, since then a
// difference of that size proves nothing either way.
func verdict(d metricDef, base, change []float64) (ratio float64, v string) {
	mb, mc := median(base), median(change)
	ratio = mc / mb
	worsening := ratio - 1
	if d.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case spreadShare(base) > d.Bound || spreadShare(change) > d.Bound:
		return ratio, "unresolved"
	case worsening > d.Bound:
		return ratio, "worse"
	}
	return ratio, "ok"
}

// compareFiles prints, per (end-to-end metric, workload), both sides'
// medians and spreads, the ratio with its base, the bound and the verdict,
// and reports whether any pairing got worse.
func compareFiles(w io.Writer, basePath, changePath string) (anyWorse bool, err error) {
	baseRecs, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	changeRecs, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	base, change := valuesOf(baseRecs, false), valuesOf(changeRecs, false)
	fmt.Fprintf(w, "%-15s %-12s %12s %7s %4s %12s %7s %4s  %-16s %5s  %s\n",
		"workload", "metric", "base median", "spread", "n", "new median", "spread", "n", "ratio (new/base)", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			k := pairKey{wl, d.Name}
			b, c := base[k], change[k]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			ratio, v := verdict(d, b, c)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-12s %12.4f %6.1f%% %4d %12.4f %6.1f%% %4d  %-16.4f %5.2f  %s\n",
				wl, d.Name, median(b), spreadShare(b)*100, len(b), median(c), spreadShare(c)*100, len(c), ratio, d.Bound, v)
		}
	}
	// Per-layer numbers have no bound: list the ratio of those both files
	// hold, for tracing where an end-to-end difference came from.
	lb, lc := valuesOf(baseRecs, true), valuesOf(changeRecs, true)
	var keys []pairKey
	for k := range lb {
		if len(lc[k]) > 0 && median(lb[k]) != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		fmt.Fprintf(w, "%-15s %-34s %14.4f %14.4f  ratio %.4f (new/base)\n", k.workload, k.metric, median(lb[k]), median(lc[k]), median(lc[k])/median(lb[k]))
	}
	return anyWorse, nil
}
