package rpc

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// keySet collects every object key in a decoded JSON document as a sorted
// list of dotted paths (array elements share their parent's path).
func keySet(v any, path string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			into[path+"."+k] = true
			keySet(child, path+"."+k, into)
		}
	case []any:
		for _, child := range v {
			keySet(child, path, into)
		}
	}
}

func sortedKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	keySet(v, "", set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatszWireCompat decodes /statsz bodies captured from `serve -listen`
// at the commit before live.Stats embedded its Ledger (a single-model server
// and a 2-tenant one) and checks the embedding changed nothing on the wire:
// every counter, knob, gauge and percentile lands in the same-named field,
// and re-encoding yields exactly the captured key set (encoding/json
// flattens embedded structs, so peers built before and after interoperate).
func TestStatszWireCompat(t *testing.T) {
	single, err := os.ReadFile("testdata/statsz_single.json")
	if err != nil {
		t.Fatal(err)
	}
	var got StatsResponse
	if err := json.Unmarshal(single, &got); err != nil {
		t.Fatal(err)
	}
	svc := got.Service
	if got.Model != "DLRM-RMC1" || got.Scale != 1 || len(got.Tenants) != 1 || got.Tenants[0].Name != "" {
		t.Errorf("envelope = %q scale %v, %d tenants", got.Model, got.Scale, len(got.Tenants))
	}
	// Counters (the Ledger).
	if svc.Submitted != 900 || svc.Completed != 80 || svc.Cancelled != 1 || svc.Shed != 819 || svc.Evicted != 819 ||
		svc.ShedDeadline != 0 || svc.Abandoned != 0 || svc.Failed != 0 || svc.Retunes != 0 ||
		svc.GPUQueries != 3 || svc.WorkItems != 7068 || svc.GPUItems != 1153 ||
		svc.DegradeSteps != 1 || svc.Truncated != 17 || svc.FallbackServed != 0 ||
		!svc.EmbStore || svc.EmbHits != 3100919 || svc.EmbMisses != 668076 || svc.EmbEvictions != 652076 || svc.EmbBytesRead != 85513728 {
		t.Errorf("service ledger decoded wrong: %+v", svc.Ledger)
	}
	if !svc.Conserved() {
		t.Errorf("captured ledger not conserved: %+v", svc.Ledger)
	}
	// Identity, knobs, gauges, percentiles, ratios.
	if svc.Tenant != "" || svc.Share != 1 || svc.BatchSize != 256 || svc.GPUThreshold != 300 ||
		svc.Queued != 0 || svc.DegradeLevel != 1 || svc.WindowLen != 40 || svc.SLA != 20*time.Millisecond ||
		svc.P50 != 30148191 || svc.P95 != 48747298 ||
		svc.GPUQueryShare != 0.037037037037037035 || svc.GPUWorkShare != 0.16312959818902095 || svc.EmbHitRate != 0.8227442594113284 {
		t.Errorf("service non-counter fields decoded wrong: %+v", svc)
	}
	// The wire ratios are the ledger's own derivations.
	if svc.GPUWorkShare != svc.Ledger.GPUWorkShare() || svc.EmbHitRate != svc.Ledger.EmbHitRate() {
		t.Errorf("wire ratios %v / %v != ledger-derived %v / %v",
			svc.GPUWorkShare, svc.EmbHitRate, svc.Ledger.GPUWorkShare(), svc.Ledger.EmbHitRate())
	}
	if want := (ServerCounters{Requests: 900, OK: 80, Overloaded: 819, Deadline: 1}); got.Server != want {
		t.Errorf("server counters = %+v, want %+v", got.Server, want)
	}

	tenants, err := os.ReadFile("testdata/statsz_tenants.json")
	if err != nil {
		t.Fatal(err)
	}
	var multi StatsResponse
	if err := json.Unmarshal(tenants, &multi); err != nil {
		t.Fatal(err)
	}
	if len(multi.Tenants) != 2 || multi.Tenants[0].Name != "ads" || multi.Tenants[1].Name != "ranking" {
		t.Fatalf("tenants decoded wrong: %+v", multi.Tenants)
	}
	ads, ranking := multi.Tenants[0].Stats, multi.Tenants[1].Stats
	if ads.Tenant != "ads" || ads.Share != 2 || ads.Submitted != 200 || ads.Completed != 200 || ads.BatchSize != 64 ||
		ads.WorkItems != 22292 || ads.SLA != 150*time.Millisecond || ads.P95 != 7462065 || ads.WindowLen != 200 {
		t.Errorf("tenant ads decoded wrong: %+v", ads)
	}
	if ranking.Tenant != "ranking" || ranking.Share != 1 || ranking.Submitted != 60 || ranking.Completed != 44 ||
		ranking.Cancelled != 16 || ranking.BatchSize != 16 || ranking.SLA != 400*time.Millisecond || ranking.P50 != 274276372 {
		t.Errorf("tenant ranking decoded wrong: %+v", ranking)
	}
	// Service totals are the tenant sums: the merge the wire feeds.
	if sum := ads.Ledger.Add(ranking.Ledger); sum != multi.Service.Ledger {
		t.Errorf("service ledger %+v != tenant sum %+v", multi.Service.Ledger, sum)
	}

	for name, doc := range map[string][]byte{"single": single, "tenants": tenants} {
		var resp StatsResponse
		if err := json.Unmarshal(doc, &resp); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedKeys(t, again), sortedKeys(t, doc); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-encoded key set differs from the captured one:\ngot  %v\nwant %v", name, got, want)
		}
	}
}
