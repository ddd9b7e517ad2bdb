package flashcache

import (
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

func smallSim(t *testing.T) *Sim {
	t.Helper()
	s, err := New(Config{CacheBytes: 16 * 4096, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if (Config{CacheBytes: 0, BlockBytes: 4096}).Validate() == nil {
		t.Error("zero cache accepted")
	}
	if (Config{CacheBytes: 100, BlockBytes: 4096}).Validate() == nil {
		t.Error("cache smaller than a block accepted")
	}
	if (Config{CacheBytes: 1 << 45, BlockBytes: 4096}).Validate() == nil {
		t.Error("cache past the int32 block table accepted")
	}
}

func TestDefaultCapacity(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.blocks.Cap() != (1<<30)/4096 {
		t.Errorf("capacity = %d", s.blocks.Cap())
	}
}

func TestReadMissThenHit(t *testing.T) {
	s := smallSim(t)
	if s.Read(42) {
		t.Error("cold read hit")
	}
	if !s.Read(42) {
		t.Error("warm read missed")
	}
	st := s.Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.readHitRate() != 0.5 {
		t.Errorf("hit rate = %g", st.readHitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	s := smallSim(t) // 16 blocks
	for b := int64(0); b < 17; b++ {
		s.Read(b)
	}
	if s.Read(0) {
		t.Error("LRU victim (block 0) still cached")
	}
	if !s.Read(16) {
		t.Error("recent block evicted")
	}
	if s.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestWriteAllocatesAndCounts(t *testing.T) {
	s := smallSim(t)
	s.Write(7)
	if !s.Read(7) {
		t.Error("written block not cached")
	}
	s.Write(7)
	st := s.Stats()
	if st.Writes != 2 || st.WriteHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// install(7) + rewrite(7) + nothing for read = 2 flash programs.
	if st.FlashBlockWrites != 2 {
		t.Errorf("flash writes = %d, want 2", st.FlashBlockWrites)
	}
}

func TestReplayHitRateGrowsWithCache(t *testing.T) {
	sd, err := trace.NewSyntheticDisk(100000, 1.0, 4, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hitRate := func(cacheBlocks int64) float64 {
		s, err := New(Config{CacheBytes: cacheBlocks * 4096, BlockBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(3)
		return Replay(s, sd, r, 20000).readHitRate()
	}
	small, large := hitRate(1000), hitRate(20000)
	if large <= small {
		t.Errorf("bigger cache hit rate %.3f not above smaller %.3f", large, small)
	}
	if small <= 0 || large >= 1 {
		t.Errorf("degenerate hit rates: %g, %g", small, large)
	}
}

func TestDiskWorkingSetUnknown(t *testing.T) {
	if _, err := DiskWorkingSet("no-such-workload"); err == nil {
		t.Fatal("unknown working set accepted")
	}
	ws, err := DiskWorkingSet("webmail")
	if err != nil {
		t.Fatal(err)
	}
	if all := DiskWorkingSets()["webmail"]; ws.Blocks != all.Blocks || ws.WriteFraction != all.WriteFraction {
		t.Errorf("single build %+v differs from the full set's %+v", ws, all)
	}
}

func TestDiskWorkingSetsComplete(t *testing.T) {
	ws := DiskWorkingSets()
	for _, name := range []string{"websearch", "webmail", "ytube", "mapred-wc", "mapred-wr"} {
		sd, ok := ws[name]
		if !ok {
			t.Fatalf("missing working set for %s", name)
		}
		if sd.Blocks <= 0 {
			t.Errorf("%s: no blocks", name)
		}
	}
	// The write job must be write-dominated; search read-dominated.
	if ws["mapred-wr"].WriteFraction < 0.5 {
		t.Error("mapred-wr not write-heavy")
	}
	if ws["websearch"].WriteFraction > 0.1 {
		t.Error("websearch too write-heavy")
	}
}

// Property: hit counters never exceed access counters and cache never
// exceeds capacity.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		s, err := New(Config{CacheBytes: 64 * 512, BlockBytes: 512})
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed)
		for i := 0; i < 3000; i++ {
			b := r.Int63n(500)
			if r.Bool(0.3) {
				s.Write(b)
			} else {
				s.Read(b)
			}
		}
		st := s.Stats()
		return st.ReadHits <= st.Reads && st.WriteHits <= st.Writes &&
			s.blocks.Len() <= s.blocks.Cap()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReplaySteadyStateAllocs pins the allocation contract: once the
// block table has filled, a replay allocates only its one emit closure,
// however many block operations it runs.
func TestReplaySteadyStateAllocs(t *testing.T) {
	s, err := New(Config{CacheBytes: 256 * 4096, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := trace.NewSyntheticDisk(4096, 0.8, 4, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	Replay(s, sd, r, 2000)
	if s.blocks.Len() != s.blocks.Cap() {
		t.Fatalf("warm-up left %d of %d blocks resident", s.blocks.Len(), s.blocks.Cap())
	}
	if a := testing.AllocsPerRun(20, func() { Replay(s, sd, r, 500) }); a > 1 {
		t.Fatalf("replay of 500 requests allocated %g times, want <= 1", a)
	}
}

// readHitRate returns read hits per read.
func (s Stats) readHitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads)
}
