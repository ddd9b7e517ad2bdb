package trace

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
)

func TestSyntheticPagesValidation(t *testing.T) {
	if _, err := NewSyntheticPages(0, 1, 1, 0, 1); err == nil {
		t.Error("zero footprint accepted")
	}
	if _, err := NewSyntheticPages(10, 1, 0, 0, 1); err == nil {
		t.Error("zero pages/request accepted")
	}
	if _, err := NewSyntheticPages(10, 1, 1, 2, 1); err == nil {
		t.Error("write fraction 2 accepted")
	}
}

func TestSyntheticPagesInRange(t *testing.T) {
	sp, err := NewSyntheticPages(1000, 0.9, 5.5, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(2)
	writes, total := 0, 0
	for i := 0; i < 5000; i++ {
		sp.TracePages(r, func(page int64, write bool) {
			if page < 0 || page >= 1000 {
				t.Fatalf("page %d out of range", page)
			}
			total++
			if write {
				writes++
			}
		})
	}
	if total < 5000 {
		t.Fatalf("too few accesses: %d", total)
	}
	frac := float64(writes) / float64(total)
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("write fraction %.3f, want ~0.2", frac)
	}
	// Mean pages per request ~5.5.
	mean := float64(total) / 5000
	if mean < 5.2 || mean > 5.8 {
		t.Errorf("pages/request %.2f, want ~5.5", mean)
	}
}

func TestSyntheticPagesLocality(t *testing.T) {
	sp, err := NewSyntheticPages(10000, 1.0, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(4)
	counts := map[int64]int{}
	total := 0
	for i := 0; i < 20000; i++ {
		sp.TracePages(r, func(page int64, write bool) {
			counts[page]++
			total++
		})
	}
	// A Zipf(1.0) trace over 10k pages concentrates: distinct pages
	// touched should be well below total accesses.
	if len(counts) >= total/3 {
		t.Errorf("no reuse: %d distinct of %d accesses", len(counts), total)
	}
}

func TestSyntheticDisk(t *testing.T) {
	sd, err := NewSyntheticDisk(100000, 0.9, 8, 1.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	seqRuns := 0
	var last int64 = -10
	total := 0
	for i := 0; i < 2000; i++ {
		sd.TraceDisk(r, func(block int64, write bool) {
			if block < 0 || block >= 100000 {
				t.Fatalf("block %d out of range", block)
			}
			if block == last+1 {
				seqRuns++
			}
			last = block
			total++
		})
	}
	if total == 0 {
		t.Fatal("no disk accesses")
	}
	if float64(seqRuns)/float64(total) < 0.5 {
		t.Errorf("expected mostly sequential runs, got %.2f", float64(seqRuns)/float64(total))
	}
}

func TestSyntheticDiskValidation(t *testing.T) {
	if _, err := NewSyntheticDisk(0, 1, 1, 1, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := NewSyntheticDisk(10, 1, 0.5, 1, 0); err == nil {
		t.Error("run < 1 accepted")
	}
	if _, err := NewSyntheticDisk(10, 1, 1, 1, -0.1); err == nil {
		t.Error("negative write fraction accepted")
	}
}

func TestCollectPages(t *testing.T) {
	sp, err := NewSyntheticPages(100, 1, 3, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(7)
	tr := CollectPages(sp, r, 50)
	if tr.Requests() != 50 {
		t.Fatalf("requests = %d", tr.Requests())
	}
	if tr.RequestEnds[len(tr.RequestEnds)-1] != len(tr.Accesses) {
		t.Fatal("request ends do not cover accesses")
	}
	for i := 1; i < len(tr.RequestEnds); i++ {
		if tr.RequestEnds[i] < tr.RequestEnds[i-1] {
			t.Fatal("request ends not monotone")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sp, err := NewSyntheticPages(100000, 0.9, 10, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	orig := CollectPages(sp, r, 200)

	var buf bytes.Buffer
	if err := EncodePages(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Accesses) != len(orig.Accesses) || len(got.RequestEnds) != len(orig.RequestEnds) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			len(got.Accesses), len(got.RequestEnds), len(orig.Accesses), len(orig.RequestEnds))
	}
	for i := range orig.Accesses {
		if got.Accesses[i] != orig.Accesses[i] {
			t.Fatalf("access %d mismatch: %+v vs %+v", i, got.Accesses[i], orig.Accesses[i])
		}
	}
	for i := range orig.RequestEnds {
		if got.RequestEnds[i] != orig.RequestEnds[i] {
			t.Fatalf("request end %d mismatch", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodePages(bytes.NewReader([]byte{1, 2, 3, 4, 5})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodePages(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// FuzzDecodePages feeds DecodePages arbitrary bytes. It must never
// panic, and any trace it accepts must have request ends inside its
// accesses and survive EncodePages and a second decode unchanged.
func FuzzDecodePages(f *testing.F) {
	sp, err := NewSyntheticPages(1000, 0.9, 5, 0.3, 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePages(&buf, CollectPages(sp, stats.NewRNG(2), 20)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated body
	// A header claiming 2^62 accesses and no requests, with no body.
	f.Add([]byte{0x52, 0x54, 0x48, 0x57, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodePages(bytes.NewReader(data))
		if err != nil {
			return
		}
		prev := 0
		for i, e := range tr.RequestEnds {
			if e < prev || e > len(tr.Accesses) {
				t.Fatalf("request %d ends at %d after %d, with %d accesses", i, e, prev, len(tr.Accesses))
			}
			prev = e
		}
		var out bytes.Buffer
		if err := EncodePages(&out, tr); err != nil {
			t.Fatal(err)
		}
		got, err := DecodePages(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !slices.Equal(got.Accesses, tr.Accesses) || !slices.Equal(got.RequestEnds, tr.RequestEnds) {
			t.Fatalf("round trip changed the trace: %+v, want %+v", got, tr)
		}
	})
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode round-trips arbitrary small traces.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := &PageTrace{}
		n := r.Intn(100)
		for i := 0; i < n; i++ {
			tr.Accesses = append(tr.Accesses, PageAccess{
				Page:  r.Int63n(1 << 40),
				Write: r.Bool(0.5),
			})
		}
		end := 0
		for end < n {
			end += 1 + r.Intn(5)
			if end > n {
				end = n
			}
			tr.RequestEnds = append(tr.RequestEnds, end)
		}
		var buf bytes.Buffer
		if err := EncodePages(&buf, tr); err != nil {
			return false
		}
		got, err := DecodePages(&buf)
		if err != nil {
			return false
		}
		if len(got.Accesses) != len(tr.Accesses) {
			return false
		}
		for i := range tr.Accesses {
			if got.Accesses[i] != tr.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
