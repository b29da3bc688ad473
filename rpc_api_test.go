package deeprecsys_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

// TestServeOverTheWire publishes a Service on HTTP and drives it with the
// public RemoteClient: recommendations round-trip, probes answer, and a
// graceful drain refuses new work while the underlying service survives.
func TestServeOverTheWire(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	srv, err := svc.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := deeprecsys.NewRemoteClient("http://"+srv.Addr(), deeprecsys.ClientOptions{
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	if err := client.Healthy(ctx); err != nil {
		t.Fatalf("healthy: %v", err)
	}
	reply, err := client.Recommend(ctx, 40, 3)
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if len(reply.Recs) != 3 || reply.Latency <= 0 {
		t.Fatalf("reply = %+v, want 3 recs and positive latency", reply)
	}

	if c := srv.Counters(); c.Requests != 1 || c.OK != 1 {
		t.Fatalf("server counters %+v, want 1 request / 1 ok", c)
	}
	if cs := client.Stats(); cs.Requests != 1 || cs.Successes != 1 {
		t.Fatalf("client stats %+v, want 1 request / 1 success", cs)
	}

	// Graceful drain: the wire refuses, the service itself keeps serving
	// in-process until its own Close.
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if client.Healthy(ctx) == nil {
		t.Fatal("healthy should fail after drain")
	}
	if _, err := svc.Submit(ctx, 40, 3); err != nil {
		t.Fatalf("in-process submit after wire drain: %v", err)
	}
	st := svc.Stats()
	if st.Submitted != 2 || st.Completed != 2 {
		t.Fatalf("service ledger %d/%d, want 2 submitted / 2 completed", st.Submitted, st.Completed)
	}
}

// TestAddRemoteReplica joins a second process's published service to a
// local fleet and checks traffic actually crosses the wire.
func TestAddRemoteReplica(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}

	// The "other process": a single-replica service on the wire.
	backend, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	bsrv, err := backend.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()

	// The front end: a two-replica local fleet that adopts the remote.
	front, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 16, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	if _, err := front.AddRemoteReplica("http://" + bsrv.Addr()); err != nil {
		t.Fatalf("add remote replica: %v", err)
	}

	ctx := context.Background()
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := front.Submit(ctx, 32, 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The remote member's counters reach the merged view through a
	// TTL-cached /statsz snapshot; poll until it converges.
	var st deeprecsys.ServiceStats
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = front.Stats()
		if st.Completed == n || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Submitted != n || st.Completed != n {
		t.Fatalf("front ledger %d/%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	if c := bsrv.Counters(); c.OK == 0 {
		t.Fatal("no query crossed the wire to the remote replica")
	}

	// A one-replica service is a fleet of one: the remote member joins it
	// as replica 1 and serves its share.
	single, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	id, err := single.AddRemoteReplica("http://" + bsrv.Addr())
	if err != nil || id != 1 {
		t.Fatalf("AddRemoteReplica on a one-replica service = %d, %v; want ID 1", id, err)
	}
	before := bsrv.Counters().OK
	for i := 0; i < 4; i++ {
		if _, err := single.Submit(ctx, 32, 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := bsrv.Counters().OK - before; got != 2 {
		t.Errorf("remote member served %d of 4 round-robin queries, want 2", got)
	}
	if got := single.Stats().Replicas; got != 2 {
		t.Errorf("Replicas = %d, want 2", got)
	}
}

// TestRetryAfterTracksQueueDepth is the regression test for the fleet
// adapter dropping the Queued gauge: a saturated service behind StartHTTP
// must derive its 503 Retry-After hint from its real admission-queue depth
// (depth+1 service times, 10ms each before any query has completed) and
// report that depth in /statsz — at one replica and at two. Every query is
// offloaded to the modeled accelerator, whose service time (42ms for a
// 1000-candidate DLRM-RMC2 query) does not depend on kernel speed, so the
// holders outlast the burst on any host.
func TestRetryAfterTracksQueueDepth(t *testing.T) {
	sys, err := deeprecsys.NewSystem("DLRM-RMC2", "skylake", deeprecsys.WithGPU())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ replicas, depth int }{{1, 2}, {1, 6}, {2, 6}} {
		t.Run(fmt.Sprintf("replicas=%d/queue:%d", tc.replicas, tc.depth), func(t *testing.T) {
			svc, err := sys.Serve(deeprecsys.ServeOptions{
				Replicas:     tc.replicas,
				Workers:      1, // admission concurrency 2 per replica
				GPUThreshold: 1,
				Admission:    fmt.Sprintf("queue:%d", tc.depth),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			srv, err := svc.StartHTTP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			base := "http://" + srv.Addr()

			// Overfill every replica's execution slots and queue.
			burst := tc.replicas*(2+tc.depth) + 6
			hints := make(chan time.Duration, burst)
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(base+"/v1/recommend", "application/json", strings.NewReader(`{"candidates":1000}`))
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					defer resp.Body.Close()
					io.Copy(io.Discard, resp.Body)
					if resp.StatusCode == http.StatusServiceUnavailable {
						ms, err := strconv.Atoi(resp.Header.Get("Deeprecsys-Retry-After-Ms"))
						if err != nil {
							t.Errorf("503 without a Retry-After hint: %v", err)
						}
						hints <- time.Duration(ms) * time.Millisecond
					}
				}()
			}
			// The first shed proves a queue is full; the queue then takes
			// depth/2 modeled service times to drain, so /statsz sees it.
			hint := <-hints
			resp, err := http.Get(base + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			var statsz struct{ Service struct{ Queued int } }
			err = json.NewDecoder(resp.Body).Decode(&statsz)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			if statsz.Service.Queued == 0 {
				t.Error("/statsz service.Queued = 0 on a saturated service")
			}
			if want := time.Duration(tc.depth+1) * 10 * time.Millisecond; hint < want {
				t.Errorf("Retry-After hint %v, want >= %v (queue depth %d + 1 service times)", hint, want, tc.depth)
			}
		})
	}
}
