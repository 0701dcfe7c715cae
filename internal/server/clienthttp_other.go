//go:build !unix || aix

package server

import "net"

// idlePeek has no non-blocking peek on this platform: an idle
// connection the server closed fails its next exchange instead.
type idlePeek struct{}

func (idlePeek) init(net.Conn) {}

func (idlePeek) idleOK() bool { return true }
