package websearch

import (
	"math"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func smallConfig() Config {
	return Config{
		NumDocs: 500, VocabSize: 800, MeanDocLen: 60,
		CorpusZipfS: 1.0, QueryZipfS: 0.9, CachedTermFraction: 0.25, Seed: 7,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumDocs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero docs accepted")
	}
	bad = DefaultConfig()
	bad.CachedTermFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("cached fraction > 1 accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0; tm < a.Vocab(); tm++ {
		if len(a.postings[tm]) != len(b.postings[tm]) {
			t.Fatalf("term %d posting lengths differ", tm)
		}
	}
}

func TestIndexStatistics(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Zipf corpus: popular terms should have much longer posting lists.
	if len(ix.postings[0]) <= len(ix.postings[ix.Vocab()-1]) {
		t.Errorf("term 0 postings (%d) not longer than rarest (%d)",
			len(ix.postings[0]), len(ix.postings[ix.Vocab()-1]))
	}
	// Every posting list length is bounded by the corpus size.
	for tm := 0; tm < ix.Vocab(); tm++ {
		if len(ix.postings[tm]) > ix.Docs() {
			t.Fatalf("term %d has %d postings > %d docs", tm, len(ix.postings[tm]), ix.Docs())
		}
	}
	// Cached terms are the popular prefix.
	if !ix.cached[0] {
		t.Error("hottest term not cached")
	}
	if ix.cached[ix.Vocab()-1] {
		t.Error("rarest term cached")
	}
}

func TestSearchReturnsRankedResults(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		q := ix.NewQuery(r)
		hits, st := ix.Search(q, 10)
		if len(hits) > 10 {
			t.Fatalf("more than k hits: %d", len(hits))
		}
		for j := 1; j < len(hits); j++ {
			if hits[j].Score > hits[j-1].Score {
				t.Fatalf("hits not score-ordered: %v", hits)
			}
		}
		if st.PostingsScored == 0 && len(hits) > 0 {
			t.Fatal("hits without scored postings")
		}
		if st.ColdTerms > len(q.Terms) {
			t.Fatalf("cold terms %d > query terms %d", st.ColdTerms, len(q.Terms))
		}
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hits, st := ix.Search(Query{}, 10)
	if hits != nil || st.PostingsScored != 0 {
		t.Error("empty query produced work")
	}
	if hits, _ := ix.Search(Query{Terms: []int{0}}, 0); hits != nil {
		t.Error("k=0 returned hits")
	}
}

func TestSearchOutOfRangeTermIgnored(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, st := ix.Search(Query{Terms: []int{-1, ix.Vocab() + 5}}, 10)
	if st.PostingsScored != 0 {
		t.Error("out-of-range terms scored postings")
	}
}

func TestTopKIsActuallyTopK(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []int{0, 1}}
	top3, _ := ix.Search(q, 3)
	all, _ := ix.Search(q, ix.Docs())
	if len(top3) != 3 {
		t.Fatalf("expected 3 hits, got %d", len(top3))
	}
	for i := 0; i < 3; i++ {
		if math.Abs(top3[i].Score-all[i].Score) > 1e-12 {
			t.Fatalf("top-3 disagrees with full ranking at %d", i)
		}
	}
}

// TestSearchTiesAreStable: hits that tie on score rank by doc id, so a
// repeated search returns the same top k, and that top k is the prefix
// of the full ranking, whatever order the score map is walked in.
// Single-term queries over short documents tie often.
func TestSearchTiesAreStable(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	ties := 0
	for i := 0; i < 40; i++ {
		q := ix.NewQuery(r)
		if i%2 == 0 {
			q.Terms = q.Terms[:1]
		}
		all, _ := ix.Search(q, ix.Docs())
		const k = 5
		if len(all) > k && all[k].Score == all[k-1].Score {
			ties++
		}
		for rep := 0; rep < 10; rep++ {
			hits, _ := ix.Search(q, k)
			if len(hits) != min(k, len(all)) {
				t.Fatalf("query %v: %d hits, want %d", q.Terms, len(hits), min(k, len(all)))
			}
			for j, h := range hits {
				if h != all[j] {
					t.Fatalf("query %v repeat %d: hit %d = %+v, full ranking has %+v", q.Terms, rep, j, h, all[j])
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no query tied across the top-k boundary; the test checks nothing")
	}
}

func TestQueryKeywordCounts(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	counts := map[int]int{}
	for i := 0; i < 5000; i++ {
		q := ix.NewQuery(r)
		counts[len(q.Terms)]++
		seen := map[int]bool{}
		for _, tm := range q.Terms {
			if seen[tm] {
				t.Fatal("duplicate keyword in query")
			}
			seen[tm] = true
		}
	}
	for n := 1; n <= 4; n++ {
		if counts[n] == 0 {
			t.Errorf("no queries with %d keywords", n)
		}
	}
	if counts[0] > 0 || counts[5] > 0 {
		t.Errorf("keyword counts out of range: %v", counts)
	}
}

func TestEngineSampleMeansMatchProfile(t *testing.T) {
	prof := workload.WebsearchProfile()
	e, err := New(smallConfig(), prof)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(11)
	var cpu, diskB, net stats.Summary
	for i := 0; i < 4000; i++ {
		req := e.Sample(r)
		cpu.Add(req.CPURefSec)
		diskB.Add(req.DiskReadBytes)
		net.Add(req.NetBytes)
		if req.CPURefSec < 0 || req.DiskReadBytes < 0 {
			t.Fatal("negative demand")
		}
	}
	if m := cpu.Mean(); math.Abs(m-prof.CPURefSec)/prof.CPURefSec > 0.15 {
		t.Errorf("CPU mean %g vs profile %g", m, prof.CPURefSec)
	}
	if m := diskB.Mean(); math.Abs(m-prof.DiskReadBytes)/prof.DiskReadBytes > 0.25 {
		t.Errorf("disk bytes mean %g vs profile %g", m, prof.DiskReadBytes)
	}
	if m := net.Mean(); math.Abs(m-prof.NetBytes)/prof.NetBytes > 0.25 {
		t.Errorf("net mean %g vs profile %g", m, prof.NetBytes)
	}
}

func TestTracePagesWithinFootprint(t *testing.T) {
	e, err := New(smallConfig(), workload.WebsearchProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(13)
	reads, writes := 0, 0
	for i := 0; i < 200; i++ {
		e.TracePages(r, func(page int64, write bool) {
			if page < 0 || page >= e.totalPages {
				t.Fatalf("page %d outside footprint %d", page, e.totalPages)
			}
			if write {
				writes++
			} else {
				reads++
			}
		})
	}
	if reads == 0 || writes == 0 {
		t.Errorf("trace lacks reads (%d) or writes (%d)", reads, writes)
	}
}

func TestTraceLocality(t *testing.T) {
	// Zipf query popularity must concentrate accesses on hot pages.
	e, err := New(smallConfig(), workload.WebsearchProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(17)
	counts := map[int64]int{}
	total := 0
	for i := 0; i < 2000; i++ {
		e.TracePages(r, func(page int64, write bool) {
			if !write {
				counts[page]++
				total++
			}
		})
	}
	distinct := len(counts)
	if distinct == 0 {
		t.Fatal("no read accesses traced")
	}
	// Top 10% of pages should carry well over 10% of accesses.
	freqs := make([]int, 0, distinct)
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	// simple selection: count accesses above-median frequency
	hot := 0
	for _, c := range freqs {
		if c >= 10 {
			hot += c
		}
	}
	if float64(hot)/float64(total) < 0.2 {
		t.Errorf("trace shows no locality: hot fraction %.2f", float64(hot)/float64(total))
	}
}

// Property: search work statistics are internally consistent for random
// queries.
func TestQuickSearchStatsConsistent(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		q := ix.NewQuery(r)
		hits, st := ix.Search(q, 5)
		if st.ColdBytes < 0 || st.PostingsScored < 0 {
			return false
		}
		if st.ColdTerms == 0 && st.ColdBytes != 0 {
			return false
		}
		return len(hits) <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
