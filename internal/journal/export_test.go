package journal

// GroupPending reports how many records wait for the next group-commit
// flush, so tests can order arrivals on the queue instead of on sleeps.
func (s *Store) GroupPending() int {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	return len(s.gc.pending)
}
