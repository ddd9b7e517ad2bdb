package websearch

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func TestCompressRoundTrip(t *testing.T) {
	pl := []Posting{{Doc: 0, TF: 1}, {Doc: 5, TF: 3}, {Doc: 6, TF: 1}, {Doc: 1000, TF: 12}}
	data := CompressPostings(pl)
	got, err := decompressPostings(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pl) {
		t.Fatalf("length %d != %d", len(got), len(pl))
	}
	for i := range pl {
		if got[i] != pl[i] {
			t.Fatalf("posting %d: %+v != %+v", i, got[i], pl[i])
		}
	}
}

func TestCompressEmpty(t *testing.T) {
	if data := CompressPostings(nil); len(data) != 0 {
		t.Errorf("empty list compressed to %d bytes", len(data))
	}
	got, err := decompressPostings(nil)
	if err != nil || got != nil {
		t.Errorf("empty decompress = %v, %v", got, err)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	// A lone continuation byte is an invalid varint.
	if _, err := decompressPostings([]byte{0x80}); err == nil {
		t.Error("corrupt delta accepted")
	}
	// Valid delta then truncated tf.
	if _, err := decompressPostings([]byte{0x01, 0x80}); err == nil {
		t.Error("corrupt tf accepted")
	}
}

func TestIndexCompressionRatio(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := ix.CompressionRatio()
	// Delta+varint on dense doc-ordered lists beats the 6-byte raw form.
	if ratio < 1.5 {
		t.Errorf("compression ratio %.2f too low", ratio)
	}
	if ix.CompressedIndexBytes() <= 0 {
		t.Error("no compressed bytes")
	}
	// Per-term sizes are bounded by the raw size.
	for tm := 0; tm < ix.Vocab(); tm++ {
		if ix.CompressedPostingBytes(tm) > ix.PostingBytes(tm) {
			t.Fatalf("term %d compressed larger than raw", tm)
		}
	}
	if ix.CompressedPostingBytes(-1) != 0 || ix.CompressedPostingBytes(ix.Vocab()+1) != 0 {
		t.Error("out-of-range term sizes not zero")
	}
}

func TestCompressedListsDecodeToOriginals(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0; tm < ix.Vocab(); tm += 37 {
		got, err := decompressPostings(ix.compressed[tm])
		if err != nil {
			t.Fatalf("term %d: %v", tm, err)
		}
		if len(got) != len(ix.postings[tm]) {
			t.Fatalf("term %d: %d postings != %d", tm, len(got), len(ix.postings[tm]))
		}
		for i := range got {
			if got[i] != ix.postings[tm][i] {
				t.Fatalf("term %d posting %d mismatch", tm, i)
			}
		}
	}
}

func TestQueryCacheBasics(t *testing.T) {
	c := NewQueryCache(2)
	q1 := Query{Terms: []int{3, 1}}
	q2 := Query{Terms: []int{1, 3}} // same set, different order
	if _, ok := c.Get(q1); ok {
		t.Fatal("cold hit")
	}
	c.Put(q1, []ScoredDoc{{Doc: 7, Score: 1}})
	if hits, ok := c.Get(q2); !ok || len(hits) != 1 || hits[0].Doc != 7 {
		t.Fatal("normalized key lookup failed")
	}
	// Fill beyond capacity: q1 becomes LRU after inserting two more.
	c.Put(Query{Terms: []int{9}}, nil)
	c.Put(Query{Terms: []int{8}}, nil)
	if _, ok := c.Get(q1); ok {
		t.Error("LRU entry survived eviction")
	}
	if c.order.Len() != 2 {
		t.Errorf("len = %d", c.order.Len())
	}
	if c.HitRate() <= 0 || c.HitRate() >= 1 {
		t.Errorf("hit rate = %g", c.HitRate())
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	c := NewQueryCache(0)
	c.Put(Query{Terms: []int{1}}, nil)
	if _, ok := c.Get(Query{Terms: []int{1}}); ok {
		t.Error("disabled cache hit")
	}
}

func TestEngineWithQueryCache(t *testing.T) {
	e, err := New(smallConfig(), workload.WebsearchProfile())
	if err != nil {
		t.Fatal(err)
	}
	e.SetQueryCache(NewQueryCache(4096))
	r := stats.NewRNG(19)
	var withCache stats.Summary
	for i := 0; i < 20000; i++ {
		withCache.Add(e.Sample(r).CPURefSec)
	}
	hr := e.QueryCacheHitRate()
	if hr < 0.2 {
		t.Errorf("zipf queries should hit a 4k cache often, got %.2f", hr)
	}
	// Mean CPU per request must drop well below the uncached profile.
	if withCache.Mean() > workload.WebsearchProfile().CPURefSec*0.95 {
		t.Errorf("cache did not reduce mean CPU: %g", withCache.Mean())
	}
}

// Property: compression round-trips arbitrary doc-ordered lists.
func TestQuickCompressRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.Intn(200)
		pl := make([]Posting, 0, n)
		doc := int32(0)
		for i := 0; i < n; i++ {
			doc += int32(1 + r.Intn(1000))
			pl = append(pl, Posting{Doc: doc, TF: uint16(1 + r.Intn(500))})
		}
		got, err := decompressPostings(CompressPostings(pl))
		if err != nil || len(got) != len(pl) {
			return false
		}
		for i := range pl {
			if got[i] != pl[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// decompressPostings decodes a list produced by CompressPostings: the
// reference decoder the round-trip tests hold the encoder to.
func decompressPostings(data []byte) ([]Posting, error) {
	var out []Posting
	prev := int32(0)
	for len(data) > 0 {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("websearch: corrupt posting delta")
		}
		data = data[n:]
		tf, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("websearch: corrupt posting tf")
		}
		data = data[n:]
		doc := prev + int32(delta)
		out = append(out, Posting{Doc: doc, TF: uint16(tf)})
		prev = doc
	}
	return out, nil
}
