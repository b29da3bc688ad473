package deeprecsys

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// resolvedTenants serves opts on sys and returns the final per-tenant
// configs the fleet members are built from, every default filled in.
func resolvedTenants(t *testing.T, sys *System, opts ServeOptions) []live.TenantConfig {
	t.Helper()
	svc, err := sys.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg, err := svc.base.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Tenants
}

// TestTenantKnobResolution pins the one rule that resolves a tenant's
// knobs: a field set on the TenantSpec is the tenant's, one set only on
// ServeOptions is the service's, and one set on neither takes live's
// built-in default — except the SLA, which falls back to the tenant model's
// own published target. Each of the seven fields is written on the service
// only, on the tenant only, on both, and on neither; the single-model
// service, which has no TenantSpec, takes the service's value or the same
// default (its model's target, for the SLA).
func TestTenantKnobResolution(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake", WithGPU())
	if err != nil {
		t.Fatal(err)
	}
	wnd, err := model.ByName("WnD")
	if err != nil {
		t.Fatal(err)
	}
	if wnd.SLAMedium == sys.cfg.SLAMedium {
		t.Fatal("the tenant's model must have a target of its own")
	}
	fields := []struct {
		name            string
		onService       func(*ServeOptions)
		onTenant        func(*TenantSpec)
		service, tenant any // the value each writes
		neither, single any // the default: on a tenant, on the single-model service
		read            func(live.TenantConfig) any
	}{
		{"BatchSize", func(o *ServeOptions) { o.BatchSize = 32 }, func(ts *TenantSpec) { ts.BatchSize = 64 },
			32, 64, 256, 256, func(tc live.TenantConfig) any { return tc.BatchSize }},
		{"GPUThreshold", func(o *ServeOptions) { o.GPUThreshold = 100 }, func(ts *TenantSpec) { ts.GPUThreshold = 200 },
			100, 200, 0, 0, func(tc live.TenantConfig) any { return tc.GPUThreshold }},
		{"SLA", func(o *ServeOptions) { o.SLA = 50 * time.Millisecond }, func(ts *TenantSpec) { ts.SLA = 70 * time.Millisecond },
			50 * time.Millisecond, 70 * time.Millisecond, wnd.SLAMedium, sys.cfg.SLAMedium,
			func(tc live.TenantConfig) any { return tc.SLA }},
		{"Admission", func(o *ServeOptions) { o.Admission = "reject" }, func(ts *TenantSpec) { ts.Admission = "queue:8" },
			live.AdmissionConfig{Policy: live.AdmitReject, Concurrency: 2, Depth: 8},
			live.AdmissionConfig{Policy: live.AdmitQueue, Concurrency: 2, Depth: 8},
			live.AdmissionConfig{}, live.AdmissionConfig{}, func(tc live.TenantConfig) any { return tc.Admission }},
		{"Deadline", func(o *ServeOptions) { o.Deadline = 30 * time.Millisecond }, func(ts *TenantSpec) { ts.Deadline = 40 * time.Millisecond },
			30 * time.Millisecond, 40 * time.Millisecond, time.Duration(0), time.Duration(0),
			func(tc live.TenantConfig) any { return tc.Deadline }},
		{"Degrade", func(o *ServeOptions) { o.Degrade = "truncate=64" }, func(ts *TenantSpec) { ts.Degrade = "truncate=32" },
			64, 32, 0, 0, func(tc live.TenantConfig) any { return tc.Degrade.Truncate }},
		{"Access", func(o *ServeOptions) { o.Access = "zipf:1.3" }, func(ts *TenantSpec) { ts.Access = "zipf:1.5" },
			workload.ZipfAccess{S: 1.3, V: 1}, workload.ZipfAccess{S: 1.5, V: 1}, nil, nil,
			func(tc live.TenantConfig) any { return tc.Access }},
	}
	for _, f := range fields {
		for _, c := range []struct {
			where           string
			service, tenant bool
			want            any
		}{
			{"on the service only", true, false, f.service},
			{"on the tenant only", false, true, f.tenant},
			{"on both", true, true, f.tenant},
			{"on neither", false, false, f.neither},
		} {
			opts := ServeOptions{Workers: 1}
			spec := TenantSpec{Model: "WnD", Rows: 1000}
			if c.service {
				f.onService(&opts)
			}
			if c.tenant {
				f.onTenant(&spec)
			}
			opts.Tenants = []TenantSpec{spec}
			if got := f.read(resolvedTenants(t, sys, opts)[0]); got != c.want {
				t.Errorf("%s %s: tenant resolves to %v, want %v", f.name, c.where, got, c.want)
			}
		}
		opts := ServeOptions{Workers: 1}
		if got := f.read(resolvedTenants(t, sys, opts)[0]); got != f.single {
			t.Errorf("%s unset: single-model service resolves to %v, want %v", f.name, got, f.single)
		}
		f.onService(&opts)
		if got := f.read(resolvedTenants(t, sys, opts)[0]); got != f.service {
			t.Errorf("%s on the service: single-model service resolves to %v, want %v", f.name, got, f.service)
		}
	}
}

// TestTenantSpecNoneIsTheTenants pins that "none", written on a tenant,
// switches its admission gate and degrade ladder off whatever the service
// sets: only an empty spec string takes the service's value.
func TestTenantSpecNoneIsTheTenants(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	tcs := resolvedTenants(t, sys, ServeOptions{
		Workers: 1, Admission: "reject", Degrade: "truncate=64",
		Tenants: []TenantSpec{{Model: "NCF", Name: "off", Admission: "none", Degrade: "none"}, {Model: "NCF", Name: "inherits"}},
	})
	if tcs[0].Admission != (live.AdmissionConfig{}) || tcs[0].Degrade != (live.DegradeConfig{}) {
		t.Errorf(`tenant with "none" resolves to admission %+v, degrade %+v; want both off`, tcs[0].Admission, tcs[0].Degrade)
	}
	if tcs[1].Admission.Policy != live.AdmitReject || tcs[1].Degrade.Truncate != 64 {
		t.Errorf("tenant with empty specs resolves to admission %+v, degrade %+v; want the service's", tcs[1].Admission, tcs[1].Degrade)
	}
}

// TestServeRefusesBadKnobs pins that every out-of-range per-tenant value
// written on ServeOptions is refused — on the single-model service and on
// a tenant that takes it — with an error that names the field and, when it
// is live's range check that refuses, the tenant.
func TestServeRefusesBadKnobs(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		field  string
		ranged bool // refused by live's range check, which names the tenant
		set    func(*ServeOptions)
	}{
		{"sla", true, func(o *ServeOptions) { o.SLA = -time.Second }},
		{"batch", true, func(o *ServeOptions) { o.BatchSize = -5 }},
		{"batch", true, func(o *ServeOptions) { o.BatchSize = live.MaxBatchSize + 1 }},
		{"threshold", false, func(o *ServeOptions) { o.GPUThreshold = 100 }}, // no accelerator
		{"admission", false, func(o *ServeOptions) { o.Admission = "lifo" }},
		{"deadline", true, func(o *ServeOptions) { o.Deadline = -time.Second }},
		{"degrade", false, func(o *ServeOptions) { o.Degrade = "truncate=0" }},
		{"degrade", true, func(o *ServeOptions) { o.Degrade = fmt.Sprintf("truncate=%d", workload.MaxQuerySize+1) }},
		{"access", false, func(o *ServeOptions) { o.Access = "pareto" }},
	} {
		for tenant, tenants := range map[string][]TenantSpec{"NCF": nil, "a": {{Model: "NCF", Name: "a", Rows: 1000}}} {
			opts := ServeOptions{Workers: 1, Tenants: tenants}
			b.set(&opts)
			svc, err := sys.Serve(opts)
			if err == nil {
				svc.Close()
				t.Errorf("%s: %+v accepted", tenant, opts)
				continue
			}
			if !strings.Contains(strings.ToLower(err.Error()), b.field) {
				t.Errorf("%s: error does not name %s: %v", tenant, b.field, err)
			}
			if b.ranged && !strings.Contains(err.Error(), "tenant 0 ("+tenant+")") {
				t.Errorf("%s: error does not name the tenant: %v", tenant, err)
			}
		}
	}
}

// FuzzServeOptions serves what ServeOptions accepts: two NCF tenants over
// small tables, with fuzzed knobs (NaN, ±Inf, 0 and negatives included)
// written on the service or on the tenants, and spec strings drawn from
// FuzzSpecParsers' seeds. Either Serve refuses, with an error that names a
// field the input set, or 32 concurrent Submits all return (a reply,
// ErrOverloaded or a deadline error), every tenant ledger is conserved, the
// service's totals are its tenants' sums, the Share-weighted split holds,
// every number in Stats is finite, and Close returns. Workers, Replicas
// and IntraOp stay in [0, 2] and AutoScale and Chaos stay off, so no input
// starts more than a few goroutines. Run with `go test -run '^$' -fuzz
// FuzzServeOptions -fuzztime 10s .`; a plain `go test` replays the seeds.
func FuzzServeOptions(f *testing.F) {
	type input struct {
		sla, deadline, tune       int64
		jitter, share             float64
		batch, thresh, cap, trunc int
		workers, replicas, intra  uint8
		place                     uint16 // bit i: knob i on tenant a, not the service; see below
		adm, deg, access          uint8  // indices into specSeeds
		autoTune, gpu             bool
	}
	add := func(in input) {
		f.Add(in.sla, in.deadline, in.tune, in.jitter, in.share, in.batch, in.thresh, in.cap, in.trunc,
			in.workers, in.replicas, in.intra, in.place, in.adm, in.deg, in.access, in.autoTune, in.gpu)
	}
	spec := func(s string) uint8 {
		i := slices.Index(specSeeds, s)
		if i < 0 || i > math.MaxUint8 {
			f.Fatalf("%q is not among the first 256 spec seeds", s)
		}
		return uint8(i)
	}
	ms := int64(time.Millisecond)
	add(input{})
	add(input{jitter: math.Inf(1), replicas: 2})                // every replica at the speed floor
	add(input{share: math.Inf(1)})                              // the +Inf tenant all but starved
	add(input{share: 1e308, place: 1 << 7})                     // finite shares summing to +Inf
	add(input{share: math.NaN(), jitter: math.NaN(), sla: -1})  // refused by name
	add(input{trunc: 8, sla: 1000, tune: ms, workers: 1})       // a ladder the degrader walks
	add(input{trunc: workload.MaxQuerySize + 1, place: 1 << 5}) // a truncation past the cap
	add(input{gpu: true, thresh: 40, batch: 16, place: 1<<2 | 1<<3, autoTune: true, tune: ms,
		replicas: 2, jitter: 0.5, deg: spec("truncate=128,fallback=NCF")})
	add(input{adm: spec("shed-oldest:16"), deadline: 1, place: 1 << 4, workers: 1, replicas: 1})
	add(input{adm: spec("reject"), cap: 2, place: 1 << 8, workers: 1, replicas: 2})
	add(input{access: spec("zipf:1.5"), share: 3, intra: 2, batch: 8, place: 1 << 6, workers: 2})
	add(input{gpu: true, thresh: workload.MaxQuerySize + 1, cap: -1, share: 5e-324})
	plain, err := NewSystem("NCF", "skylake")
	if err != nil {
		f.Fatal(err)
	}
	withGPU, err := NewSystem("NCF", "skylake", WithGPU())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, sla, deadline, tune int64, jitter, share float64, batch, thresh, capacity, trunc int,
		workers, replicas, intra uint8, place uint16, adm, deg, access uint8, autoTune, gpu bool) {
		finite := !math.IsNaN(jitter) && !math.IsInf(jitter, 0) && !math.IsNaN(share) && !math.IsInf(share, 0)
		if !math.IsNaN(jitter) && !math.IsInf(jitter, 0) {
			// A finite jitter far above 1 is a legal node model whose slowest
			// replica pads every forward pass 3·jitter-fold: fold it into
			// (-4, 4) so an input's queries finish in bounded time.
			jitter = math.Mod(jitter, 4)
		}
		opts := ServeOptions{
			Workers:      int(workers % 3),
			Replicas:     int(replicas % 3),
			IntraOp:      int(intra % 3),
			AutoTune:     autoTune,
			TuneInterval: time.Duration(tune),
			Jitter:       jitter,
		}
		specs := []TenantSpec{{Model: "NCF", Name: "a", Rows: 1000}, {Model: "NCF", Name: "b", Rows: 1000}}
		var named []string // the fields this input sets, as errors name them
		// knob writes one value on the service, or on tenant a when its bit
		// of place is set.
		knob := func(bit uint, name string, set bool, onService func(), onTenant func(*TenantSpec)) {
			if !set {
				return
			}
			named = append(named, name)
			if place&(1<<bit) != 0 {
				onTenant(&specs[0])
			} else {
				onService()
			}
		}
		degrade := specSeeds[int(deg)%len(specSeeds)]
		if trunc != 0 {
			degrade = fmt.Sprintf("truncate=%d", trunc)
		}
		admission, accessSpec := specSeeds[int(adm)%len(specSeeds)], specSeeds[int(access)%len(specSeeds)]
		knob(0, "sla", sla != 0, func() { opts.SLA = time.Duration(sla) }, func(ts *TenantSpec) { ts.SLA = time.Duration(sla) })
		knob(1, "deadline", deadline != 0, func() { opts.Deadline = time.Duration(deadline) },
			func(ts *TenantSpec) { ts.Deadline = time.Duration(deadline) })
		knob(2, "batch", batch != 0, func() { opts.BatchSize = batch }, func(ts *TenantSpec) { ts.BatchSize = batch })
		knob(3, "threshold", thresh != 0, func() { opts.GPUThreshold = thresh }, func(ts *TenantSpec) { ts.GPUThreshold = thresh })
		knob(4, "admission", admission != "", func() { opts.Admission = admission }, func(ts *TenantSpec) { ts.Admission = admission })
		knob(5, "degrade", degrade != "", func() { opts.Degrade = degrade }, func(ts *TenantSpec) { ts.Degrade = degrade })
		knob(6, "access", accessSpec != "", func() { opts.Access = accessSpec }, func(ts *TenantSpec) { ts.Access = accessSpec })
		// Share and MaxOutstanding are tenant fields: on tenant a, or on both.
		for _, k := range []struct {
			bit  uint
			name string
			set  bool
			on   func(*TenantSpec)
		}{
			{7, "share", share != 0, func(ts *TenantSpec) { ts.Share = share }},
			{8, "maxoutstanding", capacity != 0, func(ts *TenantSpec) { ts.MaxOutstanding = capacity }},
		} {
			if k.set {
				named = append(named, k.name)
				k.on(&specs[0])
				if place&(1<<k.bit) != 0 {
					k.on(&specs[1])
				}
			}
		}
		if tune != 0 {
			named = append(named, "tune interval")
		}
		if jitter != 0 {
			named = append(named, "jitter")
		}
		opts.Tenants = specs
		sys := plain
		if gpu {
			sys = withGPU
		}

		svc, err := sys.Serve(opts)
		if err != nil {
			msg := strings.ToLower(err.Error())
			for _, name := range named {
				if strings.Contains(msg, name) {
					return
				}
			}
			t.Fatalf("refusal names none of the fields set (%v): %v", named, err)
		}
		closed := make(chan struct{})
		defer func() {
			go func() { svc.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(30 * time.Second):
				t.Fatal("Close did not return")
			}
		}()
		if !finite {
			t.Fatalf("non-finite jitter %v or share %v accepted", jitter, share)
		}

		const queries = 32
		errs := make(chan error, queries)
		var wg sync.WaitGroup
		for i := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := svc.Submit(context.Background(), 1+i*7%64, 3)
				errs <- err
			}()
		}
		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(30 * time.Second):
			t.Fatal("Submits did not return")
		}
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Submit: %v", err)
			}
		}

		st := svc.Stats()
		var sum Ledger
		weight := 0.0
		for _, ts := range st.Tenants {
			if !ts.Conserved() {
				t.Errorf("tenant %s ledger not conserved: %+v", ts.Tenant, ts.Ledger)
			}
			if !ts.Balances(ts.Ledger) {
				t.Errorf("tenant %s front door %+v does not balance its ledger %+v", ts.Tenant, ts.FrontDoor, ts.Ledger)
			}
			sum = sum.Add(ts.Ledger)
			weight += ts.Share
		}
		if st.Ledger != sum {
			t.Errorf("service ledger %+v != tenant sums %+v", st.Ledger, sum)
		}
		if !st.Balances(st.Ledger) {
			t.Errorf("service front door %+v does not balance its ledger %+v", st.FrontDoor, st.Ledger)
		}
		for _, ts := range st.Tenants {
			picks, exact := float64(ts.FrontSubmitted), queries*(ts.Share/weight)
			if !(math.Abs(picks-exact) <= 1) { // NaN fails too
				t.Errorf("tenant %s (share %v of %v) picked %v times of %d, want %.2f", ts.Tenant, ts.Share, weight, picks, queries, exact)
			}
		}
		checkFinite(t, "Stats()", reflect.ValueOf(st))
	})
}

// checkFinite reports every float in v, walked through structs and slices,
// that is NaN or infinite.
func checkFinite(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("%s = %v", path, f)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			checkFinite(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			checkFinite(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	}
}
