package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// FuzzRecommendCodec holds the recommend verb's hand-written codec to
// encoding/json. Encoding: the request must be json.Marshal's bytes and the
// reply json.NewEncoder(...).Encode's, and the reply must be refused exactly
// when encoding/json refuses it (a NaN or infinite CTR). Decoding: arbitrary
// bytes, ending cleanly or in a read error, must give json.Decoder's result
// for both messages — the same error-ness and a DeepEqual value — and the
// encoder's own output must take the scanner's path whenever its tenant
// needs no escape.
func FuzzRecommendCodec(f *testing.F) {
	ctrs := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-7, 9.99e-7, 1e-6, 0.25, 1,
		1e20, 1e21, math.MaxFloat32, float32(math.NaN()), float32(math.Inf(-1))}
	tenants := []string{"", "NCF", "ads", `<a&b>`, "q\"\\", "tab\tnl\n\x00\x1f", "\u2028\u2029", "\xff\xfe", "é", "\x7f"}
	for i, ctr := range ctrs {
		body := []byte(`{"recs":[{"item":7,"ctr":0.25}],"server_us":1200,"batch":16,"offloaded":true,"tenant":"ads"}` + "\n")
		f.Add(body, i, i%3, tenants[i%len(tenants)], math.Float32bits(ctr), uint8(i), int64(i)*1000, 16, uint8(i))
	}
	for _, seed := range []string{
		`{"candidates":32,"topn":10}`, `{"candidates":32,"topn":10,"tenant":"ads"}`, `{"candidates":-0,"topn":01}`,
		`{"candidates":99999999999999999999}`, `{"candidates":1,"candidates":2}`, `{"Candidates":3}`, ` {"candidates":4}`,
		`{"recs":[],"server_us":1,"batch":2}` + "\n", `{"recs":[{"item":1,"ctr":1e-7}],"server_us":1,"batch":2}`,
		`{"server_us":1,"batch":2,"offloaded":false}` + "\n", `{"server_us":1,"batch":2,"tenant":"a\u0041"}` + "\n",
		`{"recs":[{"item":1,"ctr":1e99}],"server_us":1,"batch":2}` + "\n", `{"recs":[{"item":1,"ctr":-1.5E+3}],"server_us":1,"batch":2}` + "\n",
		`{"server_us":1,"batch":2}` + "\n" + `garbage`, `{"server_us":1,"batch":2,"tenant":"` + "\xff" + `"}` + "\n",
		`{"server_us":1.0,"batch":2}` + "\n", `null`, `{`, ``, "\x00\xff",
	} {
		f.Add([]byte(seed), 32, 10, "", uint32(0), uint8(0), int64(0), 0, uint8(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, candidates, topN int, tenant string, ctrBits uint32, recs uint8, serverUs int64, batch int, flags uint8) {
		req := RecommendRequest{Candidates: candidates, TopN: topN, Tenant: tenant}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRequest(nil, &req); !bytes.Equal(got, want) {
			t.Errorf("request %+v:\ngot  %s\nwant %s", req, got, want)
		}
		var back RecommendRequest
		if !scanRequest(want, &back) && !strings.ContainsRune(string(want), '\\') {
			t.Errorf("scanner refused the encoder's request %s", want)
		}

		resp := RecommendResponse{ServerUs: serverUs, Batch: batch, Offloaded: flags&1 != 0, Degraded: flags&2 != 0, Tenant: tenant}
		for i := 0; i < int(recs%12); i++ {
			resp.Recs = append(resp.Recs, Rec{Item: candidates - i, CTR: math.Float32frombits(ctrBits + uint32(i)*0x00800001)})
		}
		var enc bytes.Buffer
		jerr := json.NewEncoder(&enc).Encode(resp)
		got, ok := appendResponse(nil, &resp)
		switch {
		case ok != (jerr == nil):
			t.Errorf("reply %+v: codec ok=%v, encoding/json error %v", resp, ok, jerr)
		case ok && !bytes.Equal(got, enc.Bytes()):
			t.Errorf("reply %+v:\ngot  %s\nwant %s", resp, got, enc.Bytes())
		case ok:
			var back RecommendResponse
			if !scanResponse(got, &back) && !strings.ContainsRune(string(got), '\\') {
				t.Errorf("scanner refused the encoder's reply %s", got)
			}
		}

		for _, msg := range [][]byte{body, want, got} {
			sameDecode(t, msg, flags&4 != 0, new(RecommendRequest), scanRequest)
			sameDecode(t, msg, flags&4 != 0, new(RecommendResponse), scanResponse)
		}
	})
}

var errMidBody = errors.New("connection lost mid-body")

// sameDecode decodes msg with decodeBody and with json.Decoder, over a stream
// that ends in EOF or, when broken, in a read error, and requires the same
// outcome.
func sameDecode[T any](t *testing.T, msg []byte, broken bool, _ *T, scan func([]byte, *T) bool) {
	t.Helper()
	stream := func() io.Reader {
		if broken {
			return io.MultiReader(bytes.NewReader(msg), errReader{errMidBody})
		}
		return bytes.NewReader(msg)
	}
	var got, want T
	gerr := decodeBody(stream(), &got, scan)
	werr := json.NewDecoder(stream()).Decode(&want)
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
		t.Errorf("decoding %q (broken=%v) as %T:\ncodec %+v, %v\njson  %+v, %v", msg, broken, got, got, gerr, want, werr)
	}
}

// TestDecodeBodyPastTheBuffer decodes a reply too large for the scanner's
// buffer: the rest of the stream goes to json.Decoder, and so does a body
// whose read fails after the buffer filled.
func TestDecodeBodyPastTheBuffer(t *testing.T) {
	var resp RecommendResponse
	for i := 0; len(resp.Recs)*24 < 2*maxFastBody; i++ {
		resp.Recs = append(resp.Recs, Rec{Item: i, CTR: 1 / float32(i+1)})
	}
	resp.ServerUs, resp.Batch = 5, 256
	body, ok := appendResponse(nil, &resp)
	if !ok || len(body) <= maxFastBody {
		t.Fatalf("reply of %d bytes, want more than %d", len(body), maxFastBody)
	}
	sameDecode(t, body, false, new(RecommendResponse), scanResponse)
	sameDecode(t, body, true, new(RecommendResponse), scanResponse)
	var got RecommendResponse
	if err := decodeBody(bytes.NewReader(body), &got, scanResponse); err != nil || !reflect.DeepEqual(got, resp) {
		t.Fatalf("large reply did not survive: %v", err)
	}
}

// TestNonFiniteCTRKeepsItsOutcome: encoding/json refused a NaN or infinite
// CTR after the 200 status was written, so the reply went out empty and the
// client reported a truncated reply; the hand encoder keeps that outcome.
func TestNonFiniteCTRKeepsItsOutcome(t *testing.T) {
	for _, ctr := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
			return live.Reply{BatchSize: 16, Recs: []model.Ranked{{Item: 1, CTR: 0.5}, {Item: 2, CTR: ctr}}}, nil
		})
		rec := httptest.NewRecorder()
		NewServer(stub, ServerConfig{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, PathRecommend, strings.NewReader(`{"candidates":2,"topn":2}`)))
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
			t.Fatalf("CTR %v: status %d with %d body bytes, want 200 with none", ctr, rec.Code, rec.Body.Len())
		}
		c, err := NewClient("http://canned", ClientConfig{MaxAttempts: 1, Transport: cannedTransport{http.StatusOK, nil}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Recommend(context.Background(), RecommendRequest{Candidates: 2, TopN: 2})
		var re *Error
		if !errors.As(err, &re) || re.Code != codeReset || !strings.Contains(re.Msg, "response truncated") {
			t.Fatalf("CTR %v: client got %v, want a truncated-reply reset", ctr, err)
		}
	}
}
