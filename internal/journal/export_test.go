package journal

import "time"

// WALReserve is how far ahead of its records the WAL file is extended.
const WALReserve = walReserve

// GroupPending reports how many records wait for the next group-commit
// flush, so tests can order arrivals on the queue instead of on sleeps.
func (s *Store) GroupPending() int {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	return len(s.gc.pending)
}

// SetGroupFlush sets the mean flush time a waiting leader halves, so a
// test can make the wait one that no returning writer loses. Call it
// while no append is in flight.
func (s *Store) SetGroupFlush(d time.Duration) {
	s.mu.Lock()
	s.gc.flush = d
	s.mu.Unlock()
}

// GroupSeen reports how many writers the last flush saw: the queue
// length the next leader waits for.
func (s *Store) GroupSeen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gc.seen
}
