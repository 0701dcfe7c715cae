package server

import "hetmem/internal/memsim"

// LeaseBuffer returns the buffer behind a live lease, nil if there is
// none, for external tests that drive a lease's simulated traffic.
func (s *Server) LeaseBuffer(id uint64) *memsim.Buffer {
	l, ok := s.leases.get(id)
	if !ok {
		return nil
	}
	defer l.release()
	return l.buf
}
