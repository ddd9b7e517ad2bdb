package flashcache

import (
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
)

const (
	testFlashReadSec = 100e-6
	testDiskReadSec  = 5e-3
)

func spanTestSim(t *testing.T, every int64) (*Sim, *obs.Sink) {
	t.Helper()
	s, err := New(Config{CacheBytes: 64 * 4096, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s.instrumentSpans(span.NewTracer(sink, every), testFlashReadSec, testDiskReadSec)
	return s, sink
}

// TestStorageSpans pins the span shape: a read miss is a SAN round-trip
// at disk latency, a read hit a flash access at flash latency, both on
// the operation-count axis in microseconds; writes emit nothing.
func TestStorageSpans(t *testing.T) {
	s, sink := spanTestSim(t, 1)
	s.Read(7)  // miss -> san
	s.Read(7)  // hit -> flash
	s.Write(9) // no span

	spans := span.Decoded(sink.Events())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	miss, hit := spans[0], spans[1]
	if miss.Kind != span.KindStorage || miss.Res != "san" {
		t.Fatalf("miss span = %+v, want storage/san", miss)
	}
	if want := testDiskReadSec * 1e6; miss.Dur != want {
		t.Fatalf("miss dur = %g, want %g us", miss.Dur, want)
	}
	if hit.Res != "flash" {
		t.Fatalf("hit span on %q, want flash", hit.Res)
	}
	if want := testFlashReadSec * 1e6; hit.Dur != want {
		t.Fatalf("hit dur = %g, want %g us", hit.Dur, want)
	}
	if miss.Req != 0 || hit.Req != 1 {
		t.Fatalf("span op indices %d/%d, want 0/1", miss.Req, hit.Req)
	}
}

func TestStorageSpanSampling(t *testing.T) {
	s, sink := spanTestSim(t, 8)
	for b := int64(0); b < 32; b++ {
		s.Read(b) // op indices 0..31, all misses
	}
	spans := span.Decoded(sink.Events())
	if len(spans) != 4 {
		t.Fatalf("stride 8 over 32 reads kept %d spans, want 4", len(spans))
	}
	for _, sp := range spans {
		if sp.Req%8 != 0 {
			t.Fatalf("stride-8 tracer kept op index %d", sp.Req)
		}
	}
}

func TestSpanTracerDetach(t *testing.T) {
	s, sink := spanTestSim(t, 1)
	s.instrumentSpans(nil, testFlashReadSec, testDiskReadSec)
	s.Read(1)
	if len(sink.Events()) != 0 {
		t.Fatal("detached tracer still recorded")
	}
}

// instrumentSpans attaches a causal span tracer: every sampled read
// (sampling by operation index, the tracer's stride) emits a "storage"
// span — a flash access on a hit, a SAN round-trip to the backing disk
// on a miss — with the given device latencies as duration, in
// microseconds on the operation-count time axis. A nil tracer detaches.
func (s *Sim) instrumentSpans(tr *span.Tracer, flashReadSec, diskReadSec float64) {
	s.tracer = tr
	s.flashReadUs = flashReadSec * 1e6
	s.diskReadUs = diskReadSec * 1e6
}
