// Package websearch implements the unstructured-data benchmark of the
// suite (Table 1): an in-memory inverted-index search engine standing in
// for the paper's Nutch/Tomcat/Apache stack.
//
// A synthetic corpus is generated with Zipf-distributed term frequencies
// and indexed into posting lists. Queries draw keywords from a Zipf
// distribution over the vocabulary (after Xie & O'Hallaron, as in the
// paper) with real-world keyword-count patterns, and are executed with
// BM25 scoring over the posting lists. As in the paper's setup, only a
// fraction of index terms (25% by default) is cached in memory; queries
// touching cold terms incur disk reads for their posting lists.
package websearch

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"warehousesim/internal/stats"
)

// Posting is one (document, term-frequency) entry of a posting list.
type Posting struct {
	Doc int32
	TF  uint16
}

// Config sizes the synthetic corpus and index.
type Config struct {
	// NumDocs is the corpus size (the paper indexes 1.3M documents; the
	// default engine scales this down for simulation speed, as the paper
	// itself did for its COTSon runs).
	NumDocs int
	// VocabSize is the number of distinct terms.
	VocabSize int
	// MeanDocLen is the mean document length in tokens.
	MeanDocLen int
	// CorpusZipfS shapes term frequency in documents.
	CorpusZipfS float64
	// QueryZipfS shapes keyword popularity in queries.
	QueryZipfS float64
	// CachedTermFraction is the fraction of index terms whose posting
	// lists are memory-resident ("25% of index terms cached in memory",
	// Table 1).
	CachedTermFraction float64
	// Seed drives corpus generation.
	Seed uint64
}

// DefaultConfig returns a corpus sized for fast simulation while keeping
// realistic index statistics.
func DefaultConfig() Config {
	return Config{
		NumDocs:            20000,
		VocabSize:          20000,
		MeanDocLen:         200,
		CorpusZipfS:        1.0,
		QueryZipfS:         0.9,
		CachedTermFraction: 0.25,
		Seed:               1,
	}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.NumDocs <= 0 || c.VocabSize <= 0 || c.MeanDocLen <= 0:
		return fmt.Errorf("websearch: non-positive corpus dimensions %+v", c)
	case c.CorpusZipfS <= 0 || c.QueryZipfS <= 0:
		return fmt.Errorf("websearch: non-positive zipf shapes")
	case c.CachedTermFraction < 0 || c.CachedTermFraction > 1:
		return fmt.Errorf("websearch: cached fraction %g outside [0,1]", c.CachedTermFraction)
	}
	return nil
}

// Index is an immutable in-memory inverted index over the synthetic
// corpus.
type Index struct {
	cfg      Config
	postings [][]Posting
	// compressed[t] is term t's delta/varint-encoded posting list — the
	// on-disk representation cold reads actually move.
	compressed [][]byte
	docLen     []int32
	avgDL      float64
	// cached[t] reports whether term t's posting list is memory-resident.
	cached []bool
	// queryZipf drives keyword selection.
	queryZipf *stats.Zipf
	// kwCount draws the number of keywords per query.
	kwCount *stats.Empirical
}

// Build generates the corpus and indexes it. Deterministic for a given
// Config (including Seed).
func Build(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	corpusZipf, err := stats.NewZipf(cfg.VocabSize, cfg.CorpusZipfS)
	if err != nil {
		return nil, err
	}
	queryZipf, err := stats.NewZipf(cfg.VocabSize, cfg.QueryZipfS)
	if err != nil {
		return nil, err
	}
	// Keyword-count mix follows observed real-world query patterns
	// (1-4 keywords dominate; cf. the paper's citation of [40]).
	kwCount, err := stats.NewEmpirical(
		[]float64{1, 2, 3, 4},
		[]float64{0.30, 0.38, 0.22, 0.10},
	)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		cfg:       cfg,
		postings:  make([][]Posting, cfg.VocabSize),
		docLen:    make([]int32, cfg.NumDocs),
		cached:    make([]bool, cfg.VocabSize),
		queryZipf: queryZipf,
		kwCount:   kwCount,
	}

	// Generate documents and accumulate term frequencies.
	tf := map[int32]uint16{}
	totalLen := 0.0
	for d := 0; d < cfg.NumDocs; d++ {
		length := 1 + int(float64(cfg.MeanDocLen)*rng.ExpFloat64())
		if length > 8*cfg.MeanDocLen {
			length = 8 * cfg.MeanDocLen
		}
		ix.docLen[d] = int32(length)
		totalLen += float64(length)
		for k := range tf {
			delete(tf, k)
		}
		for i := 0; i < length; i++ {
			t := int32(corpusZipf.Rank(rng))
			if tf[t] < math.MaxUint16 {
				tf[t]++
			}
		}
		for t, f := range tf {
			ix.postings[t] = append(ix.postings[t], Posting{Doc: int32(d), TF: f})
		}
	}
	ix.avgDL = totalLen / float64(cfg.NumDocs)

	// Posting lists must be doc-ordered for merging; map iteration above
	// appends docs in increasing d already, so they are sorted. Verify
	// cheaply in long lists' interest.
	for _, pl := range ix.postings {
		if !sort.SliceIsSorted(pl, func(i, j int) bool { return pl[i].Doc < pl[j].Doc }) {
			sort.Slice(pl, func(i, j int) bool { return pl[i].Doc < pl[j].Doc })
		}
	}

	// Compressed on-disk form of every posting list.
	ix.compressed = make([][]byte, cfg.VocabSize)
	for t, pl := range ix.postings {
		ix.compressed[t] = CompressPostings(pl)
	}

	// The hottest terms are cached (the paper caches 25% of index terms;
	// hot terms dominate query traffic under Zipf popularity).
	hot := int(cfg.CachedTermFraction * float64(cfg.VocabSize))
	for t := 0; t < hot; t++ {
		ix.cached[t] = true
	}
	return ix, nil
}

// Docs returns the corpus size.
func (ix *Index) Docs() int { return ix.cfg.NumDocs }

// Vocab returns the vocabulary size.
func (ix *Index) Vocab() int { return ix.cfg.VocabSize }

// PostingBytes returns the on-disk size of term t's posting list
// (6 bytes per posting: doc id + tf, delta-encoded storage would be
// smaller but the constant factor is irrelevant to the model).
func (ix *Index) PostingBytes(t int) int { return 6 * len(ix.postings[t]) }

// Query is a keyword query.
type Query struct {
	Terms []int
}

// NewQuery draws a query: the keyword count from the empirical mix and
// each keyword from the query-popularity Zipf.
func (ix *Index) NewQuery(r *stats.RNG) Query {
	n := int(ix.kwCount.Sample(r))
	terms := make([]int, 0, n)
	for len(terms) < n {
		t := ix.queryZipf.Rank(r)
		// Avoid duplicate keywords within one query.
		dup := false
		for _, u := range terms {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			terms = append(terms, t)
		}
	}
	return Query{Terms: terms}
}

// ScoredDoc is one ranked search hit.
type ScoredDoc struct {
	Doc   int32
	Score float64
}

// SearchStats records the work a query performed — the quantities the
// workload generator maps to resource demands.
type SearchStats struct {
	// PostingsScored is the number of postings BM25-scored.
	PostingsScored int
	// ColdTerms is the number of query terms whose posting lists were
	// not memory-resident.
	ColdTerms int
	// ColdBytes is the posting-list bytes read from disk.
	ColdBytes int
	// ResponseBytes approximates the result-page size returned to the
	// client.
	ResponseBytes int
}

// BM25 parameters (standard values).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// better reports whether d ranks above e: the higher score, and on a
// tie the lower doc id. It is one total order, so the top k it picks
// do not depend on the order the hits are visited in.
func (d ScoredDoc) better(e ScoredDoc) bool {
	if d.Score != e.Score {
		return d.Score > e.Score
	}
	return d.Doc < e.Doc
}

// hitHeap keeps the best k hits seen so far with the worst at the root.
type hitHeap []ScoredDoc

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return h[j].better(h[i]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(ScoredDoc)) }
func (h *hitHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Search executes the query with term-at-a-time BM25 scoring and returns
// the top-k documents plus the work statistics.
func (ix *Index) Search(q Query, k int) ([]ScoredDoc, SearchStats) {
	var st SearchStats
	if len(q.Terms) == 0 || k <= 0 {
		return nil, st
	}
	n := float64(ix.cfg.NumDocs)
	acc := make(map[int32]float64, 256)
	for _, t := range q.Terms {
		if t < 0 || t >= len(ix.postings) {
			continue
		}
		pl := ix.postings[t]
		if len(pl) == 0 {
			continue
		}
		if !ix.cached[t] {
			st.ColdTerms++
			st.ColdBytes += ix.CompressedPostingBytes(t)
		}
		df := float64(len(pl))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range pl {
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			score := idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/ix.avgDL))
			acc[p.Doc] += score
			st.PostingsScored++
		}
	}

	h := make(hitHeap, 0, k)
	for doc, score := range acc {
		d := ScoredDoc{Doc: doc, Score: score}
		if len(h) < k {
			heap.Push(&h, d)
		} else if d.better(h[0]) {
			h[0] = d
			heap.Fix(&h, 0)
		}
	}
	hits := make([]ScoredDoc, len(h))
	copy(hits, h)
	sort.Slice(hits, func(i, j int) bool { return hits[i].better(hits[j]) })
	// ~300 bytes of snippet+metadata per hit plus page chrome.
	st.ResponseBytes = 2048 + 300*len(hits)
	return hits, st
}
