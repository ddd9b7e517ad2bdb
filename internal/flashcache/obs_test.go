package flashcache

import (
	"testing"

	"warehousesim/internal/obs"
)

func TestInstrumentedCacheStreams(t *testing.T) {
	s, err := New(Config{CacheBytes: 64 * 4096, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s.instrument(sink, 16)

	// 128 distinct blocks twice: pass one misses, pass two hits the
	// most-recent 64 and misses the evicted 64.
	for pass := 0; pass < 2; pass++ {
		for b := int64(0); b < 128; b++ {
			s.Read(b)
		}
	}
	for b := int64(0); b < 8; b++ {
		s.Write(b)
	}

	st := s.Stats()
	if got := sink.CounterValue("flashcache.reads"); got != st.Reads {
		t.Fatalf("reads counter %d != stats %d", got, st.Reads)
	}
	if got := sink.CounterValue("flashcache.read_hits"); got != st.ReadHits {
		t.Fatalf("read-hits counter %d != stats %d", got, st.ReadHits)
	}
	if got := sink.CounterValue("flashcache.writes"); got != st.Writes {
		t.Fatalf("writes counter %d != stats %d", got, st.Writes)
	}
	if got := sink.CounterValue("flashcache.block_writes"); got != st.FlashBlockWrites {
		t.Fatalf("block-writes counter %d != stats %d", got, st.FlashBlockWrites)
	}
	if got := sink.CounterValue("flashcache.evictions"); got != st.Evictions {
		t.Fatalf("evictions counter %d != stats %d", got, st.Evictions)
	}
	if n := sink.EventCount("flashcache.miss"); int64(n) != st.Reads-st.ReadHits {
		t.Fatalf("miss events %d != read misses %d", n, st.Reads-st.ReadHits)
	}
	hr := sink.SeriesByName("flashcache.read_hit_rate")
	if hr == nil || len(hr.Points) == 0 {
		t.Fatal("read-hit-rate series missing")
	}
	last := hr.Points[len(hr.Points)-1]
	if want := st.readHitRate(); last.V != want {
		t.Fatalf("final running hit rate %g != stats %g", last.V, want)
	}
}

// instrument attaches a recorder: per-op counters
// ("flashcache.reads/read_hits/writes/write_hits/block_writes/evictions"),
// a "flashcache.miss" event per read miss (the block fetched from the
// backing disk), and a running read-hit-rate series
// ("flashcache.read_hit_rate") sampled every sampleEvery operations
// (0 means 1024) with the op count as the time axis. A nil or disabled
// recorder detaches.
func (s *Sim) instrument(rec obs.Recorder, sampleEvery int64) {
	if !obs.On(rec) {
		s.rec = nil
		return
	}
	s.rec = rec
	if sampleEvery <= 0 {
		sampleEvery = 1024
	}
	s.sampleEvery = sampleEvery
}
