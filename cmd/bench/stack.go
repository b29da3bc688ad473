package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/rpc"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// topN is the ranking depth every serving query asks for.
const topN = 10

// batchSize pins the per-request batch knob (AutoTune stays off), so two
// runs execute the same work.
const batchSize = 256

// stack is one serving system under test, reduced to what the load drivers
// need. submit serves one query, checks the reply, and returns the latency
// the serving tier itself reported for it.
type stack struct {
	submit func(ctx context.Context, id int64, size int) (inner time.Duration, err error)
	// finish tears the stack down and checks its ledgers against the number
	// of correct replies the harness saw. It returns the counters the
	// per-layer report wants and one message per broken identity.
	finish func(okSeen uint64) (counts map[string]float64, broken []string)
}

var errBadReply = errors.New("bench: reply has the wrong count, order or item range")

// checkReply verifies one reply: min(topN, size) recommendations, CTR
// descending, every item id inside the candidate slate.
func checkReply[T any](recs []T, size int, get func(T) (int, float32)) error {
	want := topN
	if size < want {
		want = size
	}
	if len(recs) != want {
		return errBadReply
	}
	prev := float32(math.Inf(1))
	for _, r := range recs {
		item, ctr := get(r)
		if item < 0 || item >= size || ctr > prev {
			return errBadReply
		}
		prev = ctr
	}
	return nil
}

func publicRec(r deeprecsys.Recommendation) (int, float32) { return r.Item, r.CTR }
func wireRec(r rpc.Rec) (int, float32)                     { return r.Item, r.CTR }

// pin is one pinned recommendation: the item and the scalar-backend CTR bit
// pattern, copied from the repo's golden_test.go.
type pin struct {
	item int
	ctr  uint32
}

// goldenCheck runs System.Recommend(64, 5, 7) and compares it with the
// pinned top five: exact under the scalar backend, exact order and CTR
// within 1e-5 relative under AVX2 (the repo's two-tier equivalence policy).
func goldenCheck(sys *deeprecsys.System, want []pin) error {
	recs, err := sys.Recommend(64, len(want), 7)
	if err != nil {
		return err
	}
	if len(recs) != len(want) {
		return fmt.Errorf("golden %s: %d recommendations, want %d", sys.Model(), len(recs), len(want))
	}
	exact := tensor.ActiveBackend() == tensor.Scalar
	for i, r := range recs {
		ref := math.Float32frombits(want[i].ctr)
		drift := math.Abs(float64(r.CTR-ref)) / float64(ref)
		if r.Item != want[i].item || (exact && r.CTR != ref) || drift > 1e-5 {
			return fmt.Errorf("golden %s[%d]: item %d ctr %#08x, want item %d ctr %#08x",
				sys.Model(), i, r.Item, math.Float32bits(r.CTR), want[i].item, want[i].ctr)
		}
	}
	return nil
}

// fleetIdentity checks that every query the front door took reached exactly
// one replica, plus one more per retry.
func fleetIdentity(routed, front, retried uint64) []string {
	if routed == front+retried {
		return nil
	}
	return []string{fmt.Sprintf("fleet: replicas submitted %d != front %d + retried %d", routed, front, retried)}
}

// wireIdentity checks that client, server and harness agree on how many
// queries succeeded.
func wireIdentity(clientOK, serverOK, okSeen uint64) []string {
	if clientOK == serverOK && serverOK == okSeen {
		return nil
	}
	return []string{fmt.Sprintf("wire: client successes %d, server OK %d, correct replies seen %d", clientOK, serverOK, okSeen)}
}

// ledgerBroken checks the live tier's conservation identity.
func ledgerBroken(st deeprecsys.ServiceStats) bool {
	return st.Submitted != st.Completed+st.Cancelled+st.Shed+st.ShedDeadline+st.Failed+st.Abandoned
}

// startInProcess serves spec's model through the public API and submits
// in-process. Tracing this stack needs no seam: Reply.Latency is already
// the live tier's own measurement.
func startInProcess(spec servingSpec, w int) (*stack, error) {
	sys, err := deeprecsys.NewSystem(spec.model, "skylake")
	if err != nil {
		return nil, err
	}
	if err := goldenCheck(sys, spec.golden); err != nil {
		return nil, err
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: w, BatchSize: batchSize})
	if err != nil {
		return nil, err
	}
	return &stack{
		submit: func(ctx context.Context, _ int64, size int) (time.Duration, error) {
			reply, err := svc.Submit(ctx, size, topN)
			if err != nil {
				return 0, err
			}
			return reply.Latency, checkReply(reply.Recs, size, publicRec)
		},
		finish: func(okSeen uint64) (map[string]float64, []string) {
			st := svc.Stats()
			var broken []string
			if err := svc.Close(); err != nil {
				broken = append(broken, "close: "+err.Error())
			}
			if ledgerBroken(st) {
				broken = append(broken, fmt.Sprintf("live ledger: submitted %d != sum of dispositions", st.Submitted))
			}
			if st.Completed != okSeen {
				broken = append(broken, fmt.Sprintf("live completed %d != %d correct replies seen", st.Completed, okSeen))
			}
			return liveCounts(st, len(broken) == 0), broken
		},
	}, nil
}

func liveCounts(st deeprecsys.ServiceStats, ok bool) map[string]float64 {
	return map[string]float64{
		"live.submitted":     float64(st.Submitted),
		"live.completed":     float64(st.Completed),
		"live.not_completed": float64(st.Submitted - st.Completed),
		"live.identity_ok":   b2f(ok),
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// wireWorkers is the lane count of each of ncf-small-wire's two replicas,
// which share the w cores.
func wireWorkers(w int) int { return max(1, w/2) }

// startWire serves spec's model as a two-replica fleet published over
// loopback HTTP and submits through the public RemoteClient, one attempt
// per query.
func startWire(spec servingSpec, w int) (*stack, error) {
	sys, err := deeprecsys.NewSystem(spec.model, "skylake")
	if err != nil {
		return nil, err
	}
	if err := goldenCheck(sys, spec.golden); err != nil {
		return nil, err
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Replicas: 2, Workers: wireWorkers(w), BatchSize: batchSize, RoutingPolicy: "least-loaded",
	})
	if err != nil {
		return nil, err
	}
	srv, err := svc.StartHTTP("127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	client, err := deeprecsys.NewRemoteClient("http://"+srv.Addr(), deeprecsys.ClientOptions{MaxAttempts: 1})
	if err == nil {
		err = client.Healthy(context.Background())
	}
	if err != nil {
		srv.Close()
		svc.Close()
		return nil, err
	}
	return &stack{
		submit: func(ctx context.Context, _ int64, size int) (time.Duration, error) {
			reply, err := client.Recommend(ctx, size, topN)
			if err != nil {
				return 0, err
			}
			return reply.Latency, checkReply(reply.Recs, size, publicRec)
		},
		finish: func(okSeen uint64) (map[string]float64, []string) {
			cst, sct, st := client.Stats(), srv.Counters(), svc.Stats()
			client.Close()
			var broken []string
			if err := srv.Drain(context.Background()); err != nil {
				broken = append(broken, "drain: "+err.Error())
			}
			if err := svc.Close(); err != nil {
				broken = append(broken, "close: "+err.Error())
			}
			if ledgerBroken(st) {
				broken = append(broken, fmt.Sprintf("fleet ledger: submitted %d != sum of dispositions", st.Submitted))
			}
			var routed uint64
			for _, r := range st.PerReplica {
				routed += r.Submitted
			}
			broken = append(broken, fleetIdentity(routed, st.Submitted, st.Retried)...)
			broken = append(broken, wireIdentity(cst.Successes, sct.OK, okSeen)...)
			return nil, broken
		},
	}, nil
}

// Tracing seams for the wire stack. The request id rides a header the
// client-side RoundTripper sets from the context and the server-side
// middleware re-attaches to the request context, so the spans recorded on
// both sides of the socket share it.
const headerQueryID = "Bench-Query-Id"

type queryIDKey struct{}

func withQueryID(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, queryIDKey{}, id)
}

func queryID(ctx context.Context) (int64, bool) {
	id, ok := ctx.Value(queryIDKey{}).(int64)
	return id, ok
}

type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := queryID(r.Context()); ok {
		r.Header.Set(headerQueryID, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// traceHandler times rpc.Server's handler from outside it.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(headerQueryID), 10, 64)
		if err != nil || !tr.on() {
			next.ServeHTTP(w, r) // probes carry no id
			return
		}
		start := tr.now()
		next.ServeHTTP(w, r.WithContext(withQueryID(r.Context(), id)))
		tr.add(id, "rpc.handle", "svc.submit", start, tr.now())
	})
}

// tracedBackend times the fleet's front door from outside it; the replica's
// own Reply.Latency is the live.submit child, placed at the end of the
// fleet span (the reply returns as soon as the replica finishes).
type tracedBackend struct {
	fleet.Backend
	tr *tracer
}

func (b tracedBackend) Submit(ctx context.Context, q live.Query) (live.Reply, error) {
	id, ok := queryID(ctx)
	if !ok {
		return b.Backend.Submit(ctx, q)
	}
	start := b.tr.now()
	reply, err := b.Backend.Submit(ctx, q)
	if end := b.tr.now(); err == nil {
		b.tr.add(id, "fleet.submit", "rpc.handle", start, end)
		b.tr.add(id, "live.submit", "fleet.submit", end-int64(reply.Latency), end)
	}
	return reply, err
}

// startWireTraced rebuilds the ncf-small-wire stack from the internal
// packages the public API composes, with the benchmark's wrappers at each
// boundary: client transport, HTTP handler, fleet backend.
func startWireTraced(spec servingSpec, w int, tr *tracer) (*stack, error) {
	sys, err := deeprecsys.NewSystem(spec.model, "skylake")
	if err != nil {
		return nil, err
	}
	if err := goldenCheck(sys, spec.golden); err != nil {
		return nil, err
	}
	cfg, err := model.ByName(spec.model)
	if err != nil {
		return nil, err
	}
	m, err := model.New(cfg, 1)
	if err != nil {
		return nil, err
	}
	cfgs := make([]live.Config, 2)
	for i := range cfgs {
		// Seeds follow the public Serve's per-replica stride.
		cfgs[i] = live.Config{Model: m, Workers: wireWorkers(w), BatchSize: batchSize, SLA: cfg.SLAMedium, Seed: 1 + 7919*int64(i), Scale: 1}
	}
	fl, err := fleet.New(cfgs, fleet.NewLeastLoaded())
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer(tracedBackend{fl.AsBackend(), tr}, rpc.ServerConfig{Model: spec.model})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.Close()
		return nil, err
	}
	hs := &http.Server{Handler: traceHandler(tr, srv.Handler())}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client, err := rpc.NewClient("http://"+ln.Addr().String(), rpc.ClientConfig{
		MaxAttempts: 1,
		Transport:   idTransport{&http.Transport{MaxIdleConnsPerHost: 64}},
	})
	if err == nil {
		err = client.Healthz(context.Background())
	}
	if err != nil {
		hs.Close()
		<-served
		fl.Close()
		return nil, err
	}
	return &stack{
		submit: func(ctx context.Context, id int64, size int) (time.Duration, error) {
			if tr.on() {
				ctx = withQueryID(ctx, id)
			}
			resp, err := client.Recommend(ctx, rpc.RecommendRequest{Candidates: size, TopN: topN})
			if err != nil {
				return 0, err
			}
			return time.Duration(resp.ServerUs) * time.Microsecond, checkReply(resp.Recs, size, wireRec)
		},
		finish: func(okSeen uint64) (map[string]float64, []string) {
			cst, sct, fst := client.Stats(), srv.Counters(), fl.Stats()
			client.Close()
			var broken []string
			if err := hs.Shutdown(context.Background()); err != nil {
				broken = append(broken, "shutdown: "+err.Error())
			}
			<-served
			if err := fl.Close(); err != nil {
				broken = append(broken, "close: "+err.Error())
			}
			var routed, most, least uint64
			least = math.MaxUint64
			for _, r := range fst.Replicas {
				routed += r.Submitted
				most, least = max(most, r.Submitted), min(least, r.Submitted)
			}
			fleetBroken := fleetIdentity(routed, fst.FrontSubmitted, fst.Retried)
			broken = append(broken, fleetBroken...)
			liveOK := fst.FrontSubmitted == fst.Completed+fst.Cancelled+fst.Shed+fst.ShedDeadline+fst.Failed+fst.Abandoned
			if !liveOK {
				broken = append(broken, fmt.Sprintf("fleet ledger: submitted %d != sum of dispositions", fst.FrontSubmitted))
			}
			broken = append(broken, wireIdentity(cst.Successes, sct.OK, okSeen)...)
			counts := map[string]float64{
				"live.submitted":           float64(routed),
				"live.completed":           float64(fst.Completed),
				"live.not_completed":       float64(routed - fst.Completed),
				"live.identity_ok":         b2f(liveOK),
				"fleet.retried":            float64(fst.Retried),
				"fleet.identity_ok":        b2f(len(fleetBroken) == 0),
				"fleet.route_imbalance":    float64(most-least) / (float64(routed) / float64(len(fst.Replicas))),
				"rpc.attempts_per_request": float64(cst.Attempts) / float64(cst.Requests),
				"rpc.connect_errors":       float64(cst.ConnectErrors),
				"rpc.server_non200":        float64(sct.Requests - sct.OK),
			}
			return counts, broken
		},
	}, nil
}
