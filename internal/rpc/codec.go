package rpc

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The recommend verb's codec. Both messages are written by hand, byte for
// byte what encoding/json writes for them (json.Marshal for the request,
// json.Encoder.Encode, trailing newline included, for the reply), and read
// back by one strict scanner that accepts those bytes and nothing looser. A
// body the scanner does not accept goes to a json.Decoder over the same
// bytes, so every input decodes exactly as encoding/json decodes it;
// FuzzRecommendCodec holds both directions to encoding/json. The operational
// endpoints keep encoding/json.

// maxFastBody bounds the bytes a body is buffered to before the scanner
// gives up on it and streams the rest to json.Decoder: a top-500 reply fits,
// and it stays well inside the server's maxBodyBytes, whose refusal it must
// never trigger early.
const maxFastBody = 16 << 10

// bufPool recycles the buffers one message is read into or written from.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxFastBody {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// appendRequest appends req as json.Marshal encodes it.
func appendRequest(b []byte, req *RecommendRequest) []byte {
	b = append(b, `{"candidates":`...)
	b = strconv.AppendInt(b, int64(req.Candidates), 10)
	if req.TopN != 0 {
		b = append(b, `,"topn":`...)
		b = strconv.AppendInt(b, int64(req.TopN), 10)
	}
	if req.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendString(b, req.Tenant)
	}
	return append(b, '}')
}

// appendResponse appends resp as json.NewEncoder(w).Encode writes it. It
// reports false, like encoding/json, when a CTR is NaN or infinite.
func appendResponse(b []byte, resp *RecommendResponse) ([]byte, bool) {
	b = append(b, '{')
	if len(resp.Recs) > 0 {
		b = append(b, `"recs":[`...)
		for i, r := range resp.Recs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"item":`...)
			b = strconv.AppendInt(b, int64(r.Item), 10)
			b = append(b, `,"ctr":`...)
			var ok bool
			if b, ok = appendFloat32(b, r.CTR); !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, "],"...)
	}
	b = append(b, `"server_us":`...)
	b = strconv.AppendInt(b, resp.ServerUs, 10)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(resp.Batch), 10)
	if resp.Offloaded {
		b = append(b, `,"offloaded":true`...)
	}
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if resp.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendString(b, resp.Tenant)
	}
	return append(b, "}\n"...), true
}

// appendFloat32 is encoding/json's float32 rule: shortest 'f', or 'e' below
// 1e-6 and from 1e21 up, with a two-digit negative exponent cleaned to one.
func appendFloat32(b []byte, v float32) ([]byte, bool) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := float32(math.Abs(f)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 32)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendString appends s quoted as encoding/json quotes it, with its HTML-safe
// escaping: control characters, quote, backslash, <, > and & escaped, invalid
// UTF-8 as \ufffd, U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// scanner reads one message in the layout the encoders above write. Any
// deviation clears ok, and the caller hands the bytes to encoding/json.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes l, or fails.
func (s *scanner) lit(l string) {
	if !s.next(l) {
		s.ok = false
	}
}

// next consumes l if the input continues with it.
func (s *scanner) next(l string) bool {
	if s.ok && len(s.b)-s.i >= len(l) && string(s.b[s.i:s.i+len(l)]) == l {
		s.i += len(l)
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns how many.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// integer consumes a JSON integer that fits an int.
func (s *scanner) integer() int {
	if !s.ok {
		return 0
	}
	neg := s.next("-")
	start := s.i
	n := s.digits()
	if n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		s.ok = false
		return 0
	}
	var v int64
	for _, c := range s.b[start:s.i] {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		s.ok = false
	}
	return int(v)
}

// float32 consumes a JSON number and parses it as encoding/json parses a
// float32 field, failing where encoding/json would refuse it.
func (s *scanner) float32() float32 {
	if !s.ok {
		return 0
	}
	start := s.i
	s.next("-")
	intStart := s.i
	if n := s.digits(); n == 0 || (n > 1 && s.b[intStart] == '0') {
		s.ok = false
		return 0
	}
	if s.next(".") && s.digits() == 0 {
		s.ok = false
		return 0
	}
	if s.next("e") || s.next("E") {
		if !s.next("-") {
			s.next("+")
		}
		if s.digits() == 0 {
			s.ok = false
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 32)
	if err != nil {
		s.ok = false
	}
	return float32(f)
}

// str consumes a string with no escapes and valid UTF-8: the strings every
// deployed tenant name encodes to. Anything else is left to encoding/json.
func (s *scanner) str() string {
	s.lit(`"`)
	if !s.ok {
		return ""
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			raw := s.b[start:s.i]
			s.i++
			if !utf8.Valid(raw) {
				s.ok = false
				return ""
			}
			return string(raw)
		case c < ' ' || c == '\\':
			s.ok = false
			return ""
		}
		s.i++
	}
	s.ok = false
	return ""
}

// end reports whether the scan succeeded and consumed every byte.
func (s *scanner) end() bool { return s.ok && s.i == len(s.b) }

// scanRequest decodes b into req when b is laid out as appendRequest writes.
func scanRequest(b []byte, req *RecommendRequest) bool {
	s := scanner{b: b, ok: true}
	s.lit(`{"candidates":`)
	req.Candidates = s.integer()
	if s.next(`,"topn":`) {
		req.TopN = s.integer()
	}
	if s.next(`,"tenant":`) {
		req.Tenant = s.str()
	}
	s.lit("}")
	return s.end()
}

// scanResponse decodes b into resp when b is laid out as appendResponse
// writes.
func scanResponse(b []byte, resp *RecommendResponse) bool {
	s := scanner{b: b, ok: true}
	s.lit("{")
	if s.next(`"recs":[`) {
		resp.Recs = make([]Rec, 0, bytes.Count(b[s.i:], []byte(`{"item":`)))
		for {
			s.lit(`{"item":`)
			item := s.integer()
			s.lit(`,"ctr":`)
			ctr := s.float32()
			s.lit("}")
			if !s.ok {
				return false
			}
			resp.Recs = append(resp.Recs, Rec{Item: item, CTR: ctr})
			if !s.next(",") {
				break
			}
		}
		s.lit("],")
	}
	s.lit(`"server_us":`)
	resp.ServerUs = int64(s.integer())
	s.lit(`,"batch":`)
	resp.Batch = s.integer()
	resp.Offloaded = s.next(`,"offloaded":true`)
	resp.Degraded = s.next(`,"degraded":true`)
	if s.next(`,"tenant":`) {
		resp.Tenant = s.str()
	}
	s.lit("}\n")
	return s.end()
}

// decodeBody decodes one message from r into v (which must be zero): by scan
// when r's bytes are exactly what this file's encoder writes, otherwise by
// json.NewDecoder over the same byte stream, read errors included where they
// fell.
func decodeBody[T any](r io.Reader, v *T, scan func([]byte, *T) bool) error {
	bp := getBuf()
	defer putBuf(bp)
	data, rest := readFast(r, *bp)
	*bp = data
	if rest == nil && scan(data, v) {
		return nil
	}
	var zero T
	*v = zero
	src := io.Reader(bytes.NewReader(data))
	if rest != nil {
		src = io.MultiReader(src, rest)
	}
	return json.NewDecoder(src).Decode(v)
}

// readFast reads r into buf until EOF, a read error or maxFastBody bytes. rest
// is nil after a clean EOF, and otherwise what follows data in r's stream: the
// error that stopped the read, or r itself.
func readFast(r io.Reader, buf []byte) (data []byte, rest io.Reader) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			if cap(buf) >= maxFastBody {
				return buf, r
			}
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, errReader{err}
		}
	}
}

// errReader replays the error that ended a read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
