package websearch

import (
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// Engine executes real queries against the index and maps the work each
// query performed onto the calibrated demand profile: a query that
// scores twice the average number of postings costs twice the average
// CPU time, and disk demand follows the actual cold posting bytes.
type Engine struct {
	ix      *Index
	profile workload.Profile

	// Means estimated at construction, used to normalize per-query work
	// onto the profile's calibrated mean demands.
	meanPostings  float64
	meanColdOps   float64
	meanColdBytes float64
	meanRespBytes float64

	// Virtual memory layout for page traces: posting lists laid out
	// contiguously, followed by the JVM heap region.
	termPageStart []int64
	heapStartPage int64
	totalPages    int64

	// cache, when non-nil, is the front-end result cache; hits skip
	// scoring and disk entirely (see SetQueryCache).
	cache *QueryCache

	// popular is the head of the query log: real traffic repeats popular
	// queries verbatim (the very behavior that makes result caches pay),
	// so a fraction of requests re-issue one of these.
	popular []Query
	popZipf *stats.Zipf
}

// repeatProb is the fraction of requests that re-issue a head query.
const repeatProb = 0.4

// popularPoolSize is the size of the head-query pool.
const popularPoolSize = 2000

// pageSize is the OS page size used throughout the memory experiments.
const pageSize = 4096

// calibrationQueries is the sample size for estimating mean per-query
// work at engine construction.
const calibrationQueries = 2000

// New builds the index and calibrates the engine's demand normalization.
func New(cfg Config, profile workload.Profile) (*Engine, error) {
	ix, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{ix: ix, profile: profile}

	// Lay posting lists out in pages for the memory-trace view.
	e.termPageStart = make([]int64, cfg.VocabSize+1)
	var page int64
	for t := 0; t < cfg.VocabSize; t++ {
		e.termPageStart[t] = page
		page += int64(ix.PostingBytes(t)+pageSize-1) / pageSize
	}
	e.termPageStart[cfg.VocabSize] = page
	e.heapStartPage = page
	footprintPages := int64(profile.MemFootprintMB * 1e6 / pageSize)
	if footprintPages <= page {
		footprintPages = page + 1
	}
	e.totalPages = footprintPages

	// Head-query pool for verbatim repeats.
	r := stats.NewRNG(cfg.Seed ^ 0x5eed)
	e.popular = make([]Query, popularPoolSize)
	for i := range e.popular {
		e.popular[i] = ix.NewQuery(r)
	}
	pz, err := stats.NewZipf(popularPoolSize, 1.0)
	if err != nil {
		return nil, err
	}
	e.popZipf = pz

	// Estimate mean work per query (over the same mix Sample serves).
	var postings, coldOps, coldBytes, resp float64
	for i := 0; i < calibrationQueries; i++ {
		_, st := ix.Search(e.nextQuery(r), 10)
		postings += float64(st.PostingsScored)
		coldOps += float64(st.ColdTerms)
		coldBytes += float64(st.ColdBytes)
		resp += float64(st.ResponseBytes)
	}
	n := float64(calibrationQueries)
	e.meanPostings = postings / n
	e.meanColdOps = coldOps / n
	e.meanColdBytes = coldBytes / n
	e.meanRespBytes = resp / n
	return e, nil
}

// Profile implements workload.Generator.
func (e *Engine) Profile() workload.Profile { return e.profile }

// SetQueryCache installs a front-end result cache (nil disables). With a
// cache, popular repeated queries cost almost nothing and the served mix
// shifts toward the expensive miss tail — the ablation benches study the
// effect on sustained throughput.
func (e *Engine) SetQueryCache(c *QueryCache) { e.cache = c }

// QueryCacheHitRate reports the installed cache's hit rate (0 without a
// cache).
func (e *Engine) QueryCacheHitRate() float64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.HitRate()
}

// cacheHitCPUFraction is the cost of a cache hit relative to the mean
// query (hash lookup plus response assembly).
const cacheHitCPUFraction = 0.03

// nextQuery draws the served query mix: verbatim head-query repeats
// with probability repeatProb, fresh tail queries otherwise.
func (e *Engine) nextQuery(r *stats.RNG) Query {
	if r.Bool(repeatProb) {
		return e.popular[e.popZipf.Rank(r)]
	}
	return e.ix.NewQuery(r)
}

// Sample implements workload.Generator: it runs one actual query and
// scales its measured work onto the calibrated demand means. With a
// query cache installed, hits serve straight from memory.
func (e *Engine) Sample(r *stats.RNG) workload.Request {
	q := e.nextQuery(r)
	p := e.profile
	if e.cache != nil {
		if _, ok := e.cache.Get(q); ok {
			return workload.Request{
				CPURefSec: p.CPURefSec * cacheHitCPUFraction,
				NetBytes:  p.NetBytes,
			}
		}
	}
	hits, st := e.ix.Search(q, 10)
	if e.cache != nil {
		e.cache.Put(q, hits)
	}
	return workload.Request{
		CPURefSec:     p.CPURefSec * ratio(float64(st.PostingsScored), e.meanPostings),
		DiskOps:       p.DiskOps * ratio(float64(st.ColdTerms), e.meanColdOps),
		DiskReadBytes: p.DiskReadBytes * ratio(float64(st.ColdBytes), e.meanColdBytes),
		NetBytes:      p.NetBytes * ratio(float64(st.ResponseBytes), e.meanRespBytes),
	}
}

// TracePages implements trace.PageTracer: one query's page accesses are
// the pages of every posting list it scored (sequential within a list)
// plus scattered JVM-heap accesses for accumulators and result heaps.
func (e *Engine) TracePages(r *stats.RNG, emit func(page int64, write bool)) {
	q := e.nextQuery(r)
	touched := 0
	for _, t := range q.Terms {
		start, end := e.termPageStart[t], e.termPageStart[t+1]
		if end == start {
			end = start + 1
		}
		for p := start; p < end; p++ {
			emit(p, false)
			touched++
		}
	}
	// Heap traffic: roughly one accumulator page write per few posting
	// pages read. Allocator and accumulator structures are strongly
	// skewed toward a hot front of the heap (cubed uniform bias).
	heapPages := e.totalPages - e.heapStartPage
	for i := 0; i < touched/4+2; i++ {
		u := r.Float64()
		emit(e.heapStartPage+int64(u*u*u*float64(heapPages)), true)
	}
}

func ratio(x, mean float64) float64 {
	if mean <= 0 {
		return 1
	}
	return x / mean
}
