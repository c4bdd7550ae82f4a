package runner

import "sync"

// Store is a concurrency-safe memoized result store.  Concurrent Get
// calls with the same key compute the value exactly once and share it
// (duplicate suppression); later calls are cache hits.  Errors are
// memoized too — the simulator is deterministic, so retrying an
// identical job cannot succeed.
//
// The zero value is ready to use.
type Store[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	hits    uint64
	misses  uint64
}

type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Get returns the memoized value for key, computing it with compute on
// first use.  If another goroutine is already computing the same key,
// Get blocks until that computation finishes and shares its result.
func (s *Store[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	s.mu.Lock()
	if s.entries == nil {
		s.entries = map[K]*entry[V]{}
	}
	if e, ok := s.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	s.entries[key] = e
	s.misses++
	s.mu.Unlock()

	e.val, e.err = compute()
	close(e.done)
	return e.val, e.err
}

// Each visits every successfully computed entry.  Entries still being
// computed are skipped; visit order is unspecified.
func (s *Store[K, V]) Each(visit func(K, V)) {
	s.mu.Lock()
	snap := make(map[K]*entry[V], len(s.entries))
	for k, e := range s.entries {
		snap[k] = e
	}
	s.mu.Unlock()
	//lint:allow determinism Each's contract is explicitly order-free; output-path callers must collect into keyed maps and render in sorted order
	for k, e := range snap {
		select {
		case <-e.done:
			if e.err == nil {
				visit(k, e.val)
			}
		default:
		}
	}
}

// Stats reports cache hits (Get calls served from memo) and misses
// (computations started).
func (s *Store[K, V]) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
