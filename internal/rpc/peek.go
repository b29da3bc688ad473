//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package rpc

import (
	"net"
	"syscall"
)

// peeker checks an idle connection before reuse with one non-blocking
// MSG_PEEK: the connection is alive only if the peek would block. EOF (the
// peer closed it), an error, or a byte nobody asked for all discard it. The
// callback is built once per connection, so a check allocates nothing.
type peeker struct {
	raw  syscall.RawConn
	fn   func(fd uintptr) bool
	live bool
	buf  [1]byte
}

func (p *peeker) init(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return
	}
	p.raw = raw
	p.fn = func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		p.live = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
		return true
	}
}

// ok reports whether the connection can be checked, and so pooled.
func (p *peeker) ok() bool { return p.raw != nil }

func (p *peeker) alive() bool {
	p.live = false
	return p.raw != nil && p.raw.Read(p.fn) == nil && p.live
}
