package websearch

import (
	"encoding/binary"
)

// Compressed posting-list storage: document ids are delta-encoded and
// varint-packed, term frequencies varint-packed — the standard inverted
// index layout. The engine uses it to size the on-disk index realistically
// (cold-term reads fetch compressed bytes) and the decode cost feeds the
// CPU demand model.

// CompressPostings encodes a doc-ordered posting list.
func CompressPostings(pl []Posting) []byte {
	buf := make([]byte, 0, len(pl)*3)
	var tmp [binary.MaxVarintLen64]byte
	prev := int32(0)
	for _, p := range pl {
		n := binary.PutUvarint(tmp[:], uint64(p.Doc-prev))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(p.TF))
		buf = append(buf, tmp[:n]...)
		prev = p.Doc
	}
	return buf
}

// CompressedIndexBytes returns the total compressed index size — what
// the cold-term disk reads actually move.
func (ix *Index) CompressedIndexBytes() int {
	total := 0
	for t := range ix.postings {
		total += len(ix.compressed[t])
	}
	return total
}

// CompressedPostingBytes returns term t's compressed posting-list size.
func (ix *Index) CompressedPostingBytes(t int) int {
	if t < 0 || t >= len(ix.compressed) {
		return 0
	}
	return len(ix.compressed[t])
}

// CompressionRatio returns raw/compressed bytes for the whole index.
func (ix *Index) CompressionRatio() float64 {
	raw := 0
	for t := range ix.postings {
		raw += 6 * len(ix.postings[t])
	}
	comp := ix.CompressedIndexBytes()
	if comp == 0 {
		return 1
	}
	return float64(raw) / float64(comp)
}
