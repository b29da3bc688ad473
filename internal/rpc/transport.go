package rpc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxIdlePerHost caps the idle connections a transport keeps per host.
const maxIdlePerHost = 64

// reqWriteExclude are the headers the request line and the transport's own
// header lines already carry, as in net/http's request writer.
var reqWriteExclude = map[string]bool{
	"Host": true, "User-Agent": true, "Content-Length": true, "Transfer-Encoding": true, "Trailer": true,
}

// transport is the wire's default http.RoundTripper: plain-text HTTP/1.1
// over keep-alive connections, one exchange at a time on each, with the
// request written and the reply read on the calling goroutine. net/http's
// Transport hands every request to a writer goroutine and every reply back
// from a reader goroutine; on a loopback round trip of a few hundred
// microseconds those hand-offs are a share worth having back.
//
// What it keeps of net/http's Transport: a dial failure is net.Dialer's
// *net.OpError, so isConnectErr classifies it unchanged; idle connections
// wait in a per-host LIFO capped at maxIdlePerHost, and a reply that says
// Connection: close is honoured; an idle connection is checked before reuse
// (peek.go) and discarded if its peer closed it or sent bytes nobody asked
// for — without the check, the first request after a server restart on the
// same port would fail as a reset, which is never retried; and a cancelled
// context interrupts the exchange by setting a past deadline on its
// connection, which is then closed, never pooled. So is a connection whose
// reply body was closed before its end.
type transport struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*persistConn // per host, most recently used last
}

func newTransport() *transport {
	return &transport{idle: make(map[string][]*persistConn)}
}

// persistConn is one keep-alive connection and its buffers.
type persistConn struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	addr string
	peek peeker
}

// interrupt ends whatever exchange is blocked on the connection.
func (pc *persistConn) interrupt() { pc.nc.SetDeadline(time.Unix(1, 0)) }

// RoundTrip makes one exchange on an idle connection or a new one.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("rpc: scheme %q is not supported, only http", req.URL.Scheme)
	}
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	ctx := req.Context()
	pc, err := t.conn(ctx, hostPort(req))
	if err != nil {
		return nil, err
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.interrupt)
	}
	resp, err := pc.exchange(req, body)
	if err != nil {
		stop()
		pc.nc.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if resp.Body == http.NoBody {
		t.release(pc, stop() && !resp.Close)
		return resp, nil
	}
	resp.Body = &replyBody{rc: resp.Body, t: t, pc: pc, stop: stop, keep: !resp.Close}
	return resp, nil
}

// hostPort is the dial address of req: its host, with port 80 by default.
func hostPort(req *http.Request) string {
	host := req.URL.Host
	if req.URL.Port() == "" {
		host = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	return host
}

// conn returns the most recently used idle connection to addr that is still
// open, or dials a new one.
func (t *transport) conn(ctx context.Context, addr string) (*persistConn, error) {
	for {
		t.mu.Lock()
		idle := t.idle[addr]
		if len(idle) == 0 {
			t.mu.Unlock()
			break
		}
		pc := idle[len(idle)-1]
		idle[len(idle)-1] = nil
		t.idle[addr] = idle[:len(idle)-1]
		t.mu.Unlock()
		if pc.br.Buffered() == 0 && pc.peek.alive() {
			return pc, nil
		}
		pc.nc.Close()
	}
	nc, err := t.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	pc := &persistConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc), addr: addr}
	pc.peek.init(nc)
	return pc, nil
}

// release pools pc when keep holds and its liveness can be checked, and
// closes it otherwise.
func (t *transport) release(pc *persistConn, keep bool) {
	if keep && pc.peek.ok() {
		t.mu.Lock()
		if idle := t.idle[pc.addr]; len(idle) < maxIdlePerHost {
			t.idle[pc.addr] = append(idle, pc)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	pc.nc.Close()
}

// CloseIdleConnections closes every pooled connection.
func (t *transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*persistConn)
	t.mu.Unlock()
	for _, conns := range idle {
		for _, pc := range conns {
			pc.nc.Close()
		}
	}
}

// exchange writes req as net/http's client writes it, less the
// Accept-Encoding: gzip it adds, and reads the reply's head.
func (pc *persistConn) exchange(req *http.Request, body []byte) (*http.Response, error) {
	w := pc.bw
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	w.WriteString(req.Method)
	w.WriteByte(' ')
	w.WriteString(req.URL.RequestURI())
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(host)
	w.WriteString("\r\nUser-Agent: Go-http-client/1.1\r\n")
	if len(body) > 0 || req.Method == http.MethodPost || req.Method == http.MethodPut || req.Method == http.MethodPatch {
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(body)), 10))
		w.WriteString("\r\n")
	}
	if err := req.Header.WriteSubset(w, reqWriteExclude); err != nil {
		return nil, err
	}
	w.WriteString("\r\n")
	w.Write(body)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return http.ReadResponse(pc.br, req)
}

// replyBody hands a reply body's connection back when the body ends: to the
// pool after a clean end, closed after anything else.
type replyBody struct {
	rc   io.ReadCloser
	t    *transport
	pc   *persistConn
	stop func() bool // stops the cancellation hook; false once it has fired
	keep bool
	done bool
}

func (b *replyBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.EOF
	}
	n, err := b.rc.Read(p)
	if err != nil {
		b.finish(err == io.EOF)
	}
	return n, err
}

func (b *replyBody) Close() error {
	if !b.done {
		b.finish(false)
	}
	return nil
}

func (b *replyBody) finish(clean bool) {
	b.done = true
	b.t.release(b.pc, b.stop() && clean && b.keep)
}
