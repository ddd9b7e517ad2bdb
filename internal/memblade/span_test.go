package memblade

import (
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
)

func spanTestSim(t *testing.T, every int64) (*Sim, *obs.Sink) {
	t.Helper()
	s, err := New(Config{FootprintPages: 64, LocalFraction: 0.25, Policy: LRU, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s.InstrumentSpans(span.NewTracer(sink, every))
	return s, sink
}

// TestSwapSpansOnMisses pins the span shape: every sampled miss emits a
// swap span on the PCIe link with a nested cbf child, hits emit
// nothing, and the durations are the interconnect stalls in
// microseconds on the access-count axis.
func TestSwapSpansOnMisses(t *testing.T) {
	s, sink := spanTestSim(t, 1)
	for page := int64(0); page < 20; page++ {
		s.Access(page, false) // cold: every access misses
	}
	s.Access(19, false) // most recently used: a hit, no span

	spans := span.Decoded(sink)
	var swaps, cbfs int
	var lastSwap span.Span
	for _, sp := range spans {
		switch sp.Kind {
		case span.KindSwap:
			swaps++
			lastSwap = sp
			if sp.Res != PCIeX4().Name {
				t.Fatalf("swap span on %q, want %q", sp.Res, PCIeX4().Name)
			}
			if want := PCIeX4().StallPerMissSec * 1e6; sp.Dur != want {
				t.Fatalf("swap dur = %g, want %g us", sp.Dur, want)
			}
		case span.KindCBF:
			cbfs++
			if want := CBF().StallPerMissSec * 1e6; sp.Dur != want {
				t.Fatalf("cbf dur = %g, want %g us", sp.Dur, want)
			}
		default:
			t.Fatalf("unexpected span kind %q", sp.Kind)
		}
	}
	if int64(swaps) != s.stats.Misses {
		t.Fatalf("%d swap spans for %d misses", swaps, s.stats.Misses)
	}
	if cbfs != swaps {
		t.Fatalf("%d cbf children for %d swaps", cbfs, swaps)
	}
	// The final access was a hit: no span may carry its index.
	if lastSwap.Req == s.stats.Accesses-1 {
		t.Fatal("hit emitted a swap span")
	}
}

func TestCBFNestsInSwap(t *testing.T) {
	s, sink := spanTestSim(t, 1)
	s.Access(42, false)
	spans := span.Decoded(sink)
	if len(spans) != 2 {
		t.Fatalf("one miss produced %d spans, want 2", len(spans))
	}
	swap, cbf := spans[0], spans[1]
	if cbf.Parent != swap.ID {
		t.Fatalf("cbf parent = %d, swap id = %d", cbf.Parent, swap.ID)
	}
	if cbf.Start+cbf.Dur > swap.Start+swap.Dur {
		t.Fatal("cbf outlives its swap: critical block after full page")
	}
}

func TestSwapSpanSampling(t *testing.T) {
	s, sink := spanTestSim(t, 4)
	for page := int64(0); page < 16; page++ {
		s.Access(page, false) // all misses, access indices 0..15
	}
	for _, sp := range span.Decoded(sink) {
		if sp.Req%4 != 0 {
			t.Fatalf("stride-4 tracer kept access index %d", sp.Req)
		}
	}
	if n := len(span.Decoded(sink)); n != 8 { // 4 sampled misses x 2 spans
		t.Fatalf("got %d spans, want 8", n)
	}
}

// TestSpansWithoutInstrument pins that span tracing is independent of
// the hit/miss stream instrumentation: a tracer alone records.
func TestSpansWithoutInstrument(t *testing.T) {
	s, sink := spanTestSim(t, 1)
	// Note: Instrument was never called; only InstrumentSpans.
	s.Access(1, false)
	if len(span.Decoded(sink)) == 0 {
		t.Fatal("tracer without Instrument recorded nothing")
	}
	if sink.CounterValue("memblade.accesses") != 0 {
		t.Fatal("tracer alone should not bump obs counters")
	}
}

func TestNilTracerDetaches(t *testing.T) {
	s, sink := spanTestSim(t, 1)
	s.InstrumentSpans(nil)
	s.Access(1, false)
	if len(sink.Events()) != 0 {
		t.Fatal("detached tracer still recorded")
	}
}
