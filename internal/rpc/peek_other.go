//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package rpc

import "net"

// peeker cannot check a connection on this platform, so none is reused.
type peeker struct{}

func (p *peeker) init(net.Conn) {}
func (p *peeker) ok() bool      { return false }
func (p *peeker) alive() bool   { return false }
