package deeprecsys

import (
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/rpc"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// specSeeds is every spec string the parser tests and the CI smokes use,
// accepted and rejected alike, across all the grammars.
var specSeeds = []string{
	// size distributions and workloads
	"", "production", "lognormal", "lognormal:4.0,0.9", "lognormal:4.0, 0.9", "normal", "normal:200,10",
	"fixed:64", "fixed", "fixed:0", "fixed:99999", "fixed:abc", "lognormal:1", "lognormal:1,0", "normal:1",
	"normal:1,-2", "production:1", "production@uniform", "fixed:100@uniform", "lognormal:4.0,0.9@poisson",
	"production@burst", "fixed:10@", "fixed:32",
	// arrivals
	"poisson", "uniform", "burst", "diurnal:0.5,30s", "flash:10,2s,500ms,2s,500ms", "mmpp:8,2s,500ms",
	"diurnal:0.3,1m", "flash:10,5s,1s,5s,2s", "mmpp:8,5s,1s", "flash:1,0s,0s,0s,0s", "diurnal:0,24h",
	"mmpp:1,1s,1s", "flash: 2 , 1s, 1s, 1s, 1s", "diurnal", "diurnal:1.0,1m", "diurnal:0.5,-1m",
	"diurnal:0.5", "flash:10", "flash:0.5,1s,1s,1s,1s", "flash:2,1s,0s,0s,0s", "flash:2,1s,1s,1s",
	"mmpp:0.5,1s,1s", "mmpp:2,0s,1s", "mmpp:2,1s", "poisson:5", "uniform:5", "flash:10,500ms,250ms,1s,500ms",
	// access
	"zipf", "zipf:1.5", "zipf:1.3,2", "zipf:1.2, 2", "zipf:2.0,1.0", "pareto", "uniform:3", "zipf:1", "zipf:0.9",
	"zipf:1.2,0.5", "zipf:x", "zipf:1.2,y", "zipf:1.2", "zipf:NaN", "zipf:1.2+50000",
	// admission
	"none", "reject", "queue:8", "shed-oldest", "shed-oldest:16", "none:1", "reject:2", "queue", "queue:0",
	"queue:-1", "queue:x", "shed-oldest:0", "lifo", "queue:16", "queue:128",
	// routing policy
	"round-robin", "least-loaded", "size-aware", "size-aware:300", "size-aware:256", "tenant-partition",
	"shape-spread", "nope", "round-robin:3", "least-loaded:x", "size-aware:0", "size-aware:abc",
	// embedding store
	"dense", "synth", "mmap:/data/t", "synth,cache=lru:200000", "mmap:/d,cache=lfu:64MB", "dense,cache=lru:16KB",
	"disk", "mmap:", "synth,cache=", "synth,cache=lru", "synth,cache=arc:100", "synth,cache=lru:0",
	"synth,cache=lru:-5", "synth,cache=lru:10TB", "synth,shard=2", "mmap:/tmp/emb,cache=lru:50000",
	"cache=lru:21474836480GB", "synth,cache=lru:21474836480GB", "mmap:/tmp/embshard,cache=lru:5000",
	// chaos and net chaos
	"crash=0.5", "every=500ms,crash=0.2,restart=1s", "slow=0.3,factor=2.5", "spike=1,delay=10ms",
	" crash=0.1 , slow=0.1 ", "crash", "crash=2", "crash=-0.1", "crash=x", "every=0s", "every=xx",
	"restart=-1s", "factor=0.5", "burn=0.5", "every=1s", "factor=2,delay=1s",
	"every=500ms,crash=0.5,restart=300ms", "netdelay:5ms", "netdrop:0.1,netreset:0.05",
	"netdelay:1ms, netdrop:1, netseed:7", "netdrop=0.5", "netdelay:-5ms", "netdelay:fast", "netdrop:1.5",
	"netreset:-0.1", "bogus:1", "netdrop", "netseed:x", "netseed:7", "netdelay:5ms,netdrop:0.05,netreset:0.02",
	// degrade and autoscale bounds
	"truncate=64", "truncate=128,fallback=NCF", "truncate=0", "fallback=nope", "shrink=2", "truncate", "2:3", "1:3",
	// tenants
	"DLRM-RMC1@name=ads,sla=100ms,share=3,batch=64,access=zipf:1.2+50000;WnD@share=1,cap=32,admission=queue:128",
	";", "NCF@", "NCF@sla", "NCF@sla=nope", "NCF@share=x", "NCF@batch=x", "NCF@frobnicate=1",
	"DLRM-RMC1@name=ads,sla=150ms,share=2,batch=64;WnD@name=ranking,sla=400ms,cap=16,batch=16",
	"DLRM-RMC1@sla=100ms,share=3;WnD@sla=25ms,admission=queue:64", "NCF@degrade=truncate=128+fallback=NCF",
}

// FuzzSpecParsers feeds one string to every spec grammar in the repository.
// No parser may panic, and wherever a parsed value can render itself back
// in grammar form, that rendering must re-parse to an equal value. Run with
// `go test -run '^$' -fuzz FuzzSpecParsers -fuzztime 10s .`; a plain
// `go test` replays the seeds.
func FuzzSpecParsers(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	sys := &System{seed: 1} // parseDegrade reads only the seed
	f.Fuzz(func(t *testing.T, spec string) {
		workload.ParseDist(spec)
		workload.ParseArrivals(spec, 100)
		ParseWorkload(spec)
		live.ParseAdmission(spec)
		fleet.ParseChaos(spec)
		rpc.ParseNetChaos(spec)
		ParseTenants(spec)
		sys.parseDegrade(spec)
		if d, err := workload.ParseAccess(spec); err == nil {
			if again, err := workload.ParseAccess(d.Name()); err != nil || again != d {
				t.Errorf("access %q renders as %q, which re-parses to %v (%v)", spec, d.Name(), again, err)
			}
		}
		if p, err := fleet.ParsePolicy(spec); err == nil {
			if again, err := fleet.ParsePolicy(p.Name()); err != nil || again.Name() != p.Name() {
				t.Errorf("policy %q renders as %q, which re-parses to %v (%v)", spec, p.Name(), again, err)
			}
		}
		if sp, err := embstore.ParseSpec(spec); err == nil {
			if again, err := embstore.ParseSpec(sp.String()); err != nil || again != sp {
				t.Errorf("store %q renders as %q, which re-parses to %+v (%v)", spec, sp.String(), again, err)
			}
		}
	})
}
