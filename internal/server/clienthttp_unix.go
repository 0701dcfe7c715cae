//go:build unix && !aix

package server

import (
	"net"
	"syscall"
)

// idlePeek tells an idle connection the server has closed, or written
// to unasked, from one that is still quiet: a non-blocking MSG_PEEK of
// one byte on its socket must find nothing to read.
type idlePeek struct {
	raw  syscall.RawConn // nil: the connection has no socket to peek
	peek func(fd uintptr)
	buf  [1]byte
	err  error
}

func (p *idlePeek) init(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return
	}
	p.raw = raw
	p.peek = func(fd uintptr) {
		_, _, p.err = syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	}
}

// idleOK reports whether the connection may carry a request: the peek
// would block. End of stream, a pending byte or an error all say no.
func (p *idlePeek) idleOK() bool {
	if p.raw == nil {
		return true
	}
	// Control, not Read: the peek must not wait, and must not fail on
	// the deadline the connection's last exchange left behind.
	if p.raw.Control(p.peek) != nil {
		return false
	}
	return p.err == syscall.EAGAIN
}
