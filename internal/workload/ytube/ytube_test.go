package ytube

import (
	"math"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Videos = 2000
	c.Seed = 5
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Videos = 0 },
		func(c *Config) { c.PopularityZipfS = 0 },
		func(c *Config) { c.MeanVideoBytes = c.MedianVideoBytes },
		func(c *Config) { c.ChunkBytes = 0 },
		func(c *Config) { c.CacheFraction = 1.2 },
		func(c *Config) { c.AbandonProb = 1 },
	}
	for i, mutate := range bads {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCatalogStatistics(t *testing.T) {
	cat, err := BuildCatalog(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.videos) != 2000 {
		t.Errorf("videos = %d", len(cat.videos))
	}
	var total int64
	for v := 0; v < len(cat.videos); v++ {
		b := cat.videos[v].Bytes
		if b < 256e3 || b > 100e6 {
			t.Fatalf("video %d size %d outside clamp", v, b)
		}
		total += b
	}
	if total != cat.totalBytes {
		t.Errorf("total bytes mismatch: %d vs %d", total, cat.totalBytes)
	}
}

func TestCacheCoversHotPrefix(t *testing.T) {
	cat, err := BuildCatalog(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !cat.videos[0].Cached {
		t.Error("hottest video not cached")
	}
	if cat.videos[len(cat.videos)-1].Cached {
		t.Error("coldest video cached")
	}
	frac := cachedBytesFraction(cat)
	if frac <= 0.2 || frac > 0.30001 {
		t.Errorf("cached byte fraction %g, want ~0.30", frac)
	}
	// Prefix property: no cached video after the first uncached one.
	seenUncached := false
	for v := 0; v < len(cat.videos); v++ {
		if !cat.videos[v].Cached {
			seenUncached = true
		} else if seenUncached {
			t.Fatal("cache is not a popularity prefix")
		}
	}
}

func TestPopularitySkew(t *testing.T) {
	cat, err := BuildCatalog(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(6)
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if cat.Pick(r) < len(cat.videos)/10 {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.4 {
		t.Errorf("top-10%% videos only drew %.0f%% of requests", frac*100)
	}
}

func TestEngineCacheHitRateMatchesPopularity(t *testing.T) {
	e, err := New(smallConfig(), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(7)
	cold := 0
	const n = 20000
	for i := 0; i < n; i++ {
		req := e.Sample(r)
		if req.DiskReadBytes > 0 {
			cold++
		}
	}
	frac := float64(cold) / n
	// 30% of bytes cached on the hottest prefix should yield a cold
	// fraction well under the 70% byte residual.
	if frac > 0.7 || frac < 0.1 {
		t.Errorf("cold chunk fraction %.2f implausible", frac)
	}
}

func TestEngineSampleMeansMatchProfile(t *testing.T) {
	prof := workload.YtubeProfile()
	e, err := New(smallConfig(), prof)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(8)
	var net, disk stats.Summary
	for i := 0; i < 20000; i++ {
		req := e.Sample(r)
		net.Add(req.NetBytes)
		disk.Add(req.DiskReadBytes)
	}
	if m := net.Mean(); math.Abs(m-prof.NetBytes)/prof.NetBytes > 0.15 {
		t.Errorf("net mean %g vs profile %g", m, prof.NetBytes)
	}
	if m := disk.Mean(); math.Abs(m-prof.DiskReadBytes)/prof.DiskReadBytes > 0.25 {
		t.Errorf("disk mean %g vs profile %g", m, prof.DiskReadBytes)
	}
}

func TestViewersProgressAndRecycle(t *testing.T) {
	e, err := New(smallConfig(), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	videos := map[int]bool{}
	for i := 0; i < 5000; i++ {
		e.Sample(r)
		for _, v := range e.viewers {
			vid := e.cat.videos[v.video]
			if v.offset < 0 || v.offset > vid.Bytes {
				t.Fatalf("viewer offset %d outside video of %d bytes", v.offset, vid.Bytes)
			}
			videos[v.video] = true
		}
	}
	if len(videos) < 50 {
		t.Errorf("viewers stuck on %d distinct videos", len(videos))
	}
}

func TestTracePagesSequentialWithinChunk(t *testing.T) {
	e, err := New(smallConfig(), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(10)
	footprint := int64(e.profile.MemFootprintMB * 1e6 / pageSize)
	for i := 0; i < 300; i++ {
		var pages []int64
		e.TracePages(r, func(p int64, write bool) {
			if write {
				t.Fatal("streaming trace should be read-only")
			}
			if p < 0 || p >= footprint {
				t.Fatalf("page %d outside footprint", p)
			}
			pages = append(pages, p)
		})
		if len(pages) == 0 {
			t.Fatal("no pages traced")
		}
		for j := 1; j < len(pages); j++ {
			// Sequential modulo the footprint wrap.
			if pages[j] != (pages[j-1]+1)%footprint {
				t.Fatalf("chunk pages not sequential: %v", pages)
			}
		}
	}
}

// Property: the engine never emits negative demands, for any seed.
func TestQuickSampleNonNegative(t *testing.T) {
	e, err := New(smallConfig(), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		for i := 0; i < 50; i++ {
			req := e.Sample(r)
			if req.CPURefSec < 0 || req.DiskOps < 0 || req.DiskReadBytes < 0 || req.NetBytes < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// cachedBytesFraction reports the achieved cache coverage (may fall
// slightly below the configured fraction due to whole-video caching).
func cachedBytesFraction(c *Catalog) float64 {
	var cached int64
	for _, v := range c.videos {
		if v.Cached {
			cached += v.Bytes
		}
	}
	return float64(cached) / float64(c.totalBytes)
}
