// Package obs stands in for internal/obs: a Sink method called from
// inside the package that declares it is an emission seed, though no
// call leaves the package.
package obs

// Sink is the stand-in recorder.
type Sink struct{ counters map[string]int64 }

// Count adds delta to the named counter.
func (s *Sink) Count(name string, delta int64) { s.counters[name] += delta }

// countAll's only emission is its own package's Sink method.
func (s *Sink) countAll(m map[string]int64) {
	for k, v := range m { // want maprange:"iteration order"
		s.Count(k, v)
	}
}
