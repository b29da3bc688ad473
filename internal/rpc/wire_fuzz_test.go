package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/live"
)

// cannedTransport answers every request with one status and body: the
// client's decoders see fuzzer-chosen bytes with no socket in between.
type cannedTransport struct {
	status int
	body   []byte
}

func (c cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: c.status,
		Status:     http.StatusText(c.status),
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
	}, nil
}

// FuzzWireDecoders feeds arbitrary bytes to every JSON decoder on the wire.
// As a request body through Server.Handler over a stub backend: no panic, a
// 200 only for a body the request type decodes from, and the disposition
// counters still summing to Requests. As the reply the client decodes — a
// recommend 200, an error body, a /statsz 200: no panic, every failure a
// typed *Error, and a StatsResponse that decodes re-encodes to a key set
// that survives a second trip.
func FuzzWireDecoders(f *testing.F) {
	for _, name := range []string{"testdata/statsz_single.json", "testdata/statsz_tenants.json"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, seed := range []string{
		`{"candidates":32,"topn":3,"tenant":"ads"}`,
		`{"candidates":32,"tenant":"nobody"}`,
		`{"candidates":-1,"topn":1e99}`,
		`{"batch":64,"threshold":512}`,
		`{"batch":-1,"threshold":-1}`,
		`{"recs":[{"item":7,"ctr":0.25}],"server_us":1200,"batch":16,"offloaded":true,"tenant":"ads"}`,
		`{"code":"overloaded","error":"live: overloaded","retry_after_ms":12}`,
		`{"service":{"Submitted":"many"}}`,
		`{"tenants":[{"name":"ads"},null]}`,
		`[]`, `null`, `{`, ``, "\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		decodes := func(into any) bool { return json.NewDecoder(bytes.NewReader(body)).Decode(into) == nil }

		stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
		stub.tenants = []string{"search", "ads"}
		srv := NewServer(stub, ServerConfig{})
		for path, into := range map[string]any{PathRecommend: new(RecommendRequest), PathKnobs: new(KnobsRequest)} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code == http.StatusOK && !decodes(into) {
				t.Errorf("%s answered 200 to a body that does not decode: %q", path, body)
			}
		}
		if c := srv.Counters(); c.Requests != 1 ||
			c.OK+c.Overloaded+c.Deadline+c.Draining+c.Down+c.Cancelled+c.BadRequest != c.Requests {
			t.Errorf("server counters do not sum to one request: %+v", c)
		}

		reply := func(status int) *Client {
			c, err := NewClient("http://fuzz", ClientConfig{MaxAttempts: 1, Transport: cannedTransport{status, body}})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		var typed *Error
		if _, err := reply(http.StatusOK).Recommend(ctx, RecommendRequest{Candidates: 8}); err != nil && !errors.As(err, &typed) {
			t.Errorf("recommend reply %q: untyped error %v", body, err)
		}
		if _, err := reply(http.StatusServiceUnavailable).Recommend(ctx, RecommendRequest{Candidates: 8}); !errors.As(err, &typed) || typed.Code == "" {
			t.Errorf("error reply %q: got %v, want a typed error with a code", body, err)
		}
		if resp, err := reply(http.StatusOK).Statsz(ctx); err == nil {
			once, err := json.Marshal(resp)
			if err != nil {
				t.Fatalf("statsz reply %q decoded to something that does not encode: %v", body, err)
			}
			var back StatsResponse
			if err := json.Unmarshal(once, &back); err != nil {
				t.Fatalf("re-encoded statsz does not decode: %v\n%s", err, once)
			}
			twice, _ := json.Marshal(back)
			if got, want := sortedKeys(t, twice), sortedKeys(t, once); !reflect.DeepEqual(got, want) {
				t.Errorf("statsz key set changed across a round trip:\ngot  %v\nwant %v", got, want)
			}
		}
	})
}
