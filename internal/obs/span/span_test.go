package span

import (
	"testing"

	"warehousesim/internal/obs"
)

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(0) {
		t.Fatal("nil tracer samples")
	}
	if id := tr.Emit(0, 0, KindRequest, "", 0, 1); id != 0 {
		t.Fatalf("nil Emit returned id %d", id)
	}
}

func TestNewTracerDisabledRecorder(t *testing.T) {
	if NewTracer(nil, 1) != nil {
		t.Fatal("NewTracer(nil) is not nil")
	}
}

func TestSampling(t *testing.T) {
	tr := NewTracer(obs.NewSink(), 3)
	want := map[int64]bool{0: true, 1: false, 2: false, 3: true, 6: true, 7: false}
	for idx, w := range want {
		if tr.Sampled(idx) != w {
			t.Errorf("Sampled(%d) = %v, want %v with every=3", idx, !w, w)
		}
	}
	// every < 1 normalizes to keep-all.
	if all := NewTracer(obs.NewSink(), 0); !all.Sampled(17) {
		t.Error("every=0 tracer should keep every request")
	}
}

func TestEmitIDsDenseAndDecoded(t *testing.T) {
	sink := obs.NewSink()
	tr := NewTracer(sink, 1)
	a := tr.Emit(0, 5, KindRequest, "request", 1.0, 3.0)
	b := tr.Emit(a, 5, KindQueue, "cpu", 1.0, 1.5)
	c := tr.Emit(a, 5, KindService, "cpu", 1.5, 3.0)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("ids not dense from 1: %d %d %d", a, b, c)
	}
	spans := Decoded(sink)
	if len(spans) != 3 {
		t.Fatalf("decoded %d spans, want 3", len(spans))
	}
	got := spans[2]
	want := Span{ID: 3, Parent: 1, Req: 5, Kind: KindService, Res: "cpu", Start: 1.5, Dur: 1.5}
	if got != want || got.Start+got.Dur != 3.0 {
		t.Fatalf("decoded span = %+v ending %g, want %+v ending 3", got, got.Start+got.Dur, want)
	}
	// A partitioned model's tracer numbers from its base.
	if id := NewTracerAt(obs.NewSink(), 1, 1<<40).Emit(0, 0, KindRequest, "request", 0, 1); id != 1<<40+1 {
		t.Fatalf("first id from base 1<<40 = %d, want base+1", id)
	}
}

func TestZeroDurationSpanKept(t *testing.T) {
	sink := obs.NewSink()
	tr := NewTracer(sink, 1)
	tr.Emit(0, 0, KindQueue, "cpu", 2.0, 2.0) // empty queue: zero wait
	spans := Decoded(sink)
	if len(spans) != 1 {
		t.Fatalf("zero-duration span dropped")
	}
	if spans[0].Dur != 0 {
		t.Fatalf("dur = %g, want 0", spans[0].Dur)
	}
}

func TestNegativeDurationClamps(t *testing.T) {
	sink := obs.NewSink()
	tr := NewTracer(sink, 1)
	tr.Emit(0, 0, KindService, "cpu", 2.0, 2.0-1e-18) // fp cancellation
	if d := Decoded(sink)[0].Dur; d != 0 {
		t.Fatalf("negative duration not clamped: %g", d)
	}
}

func TestDecodeRejectsOtherStreams(t *testing.T) {
	sink := obs.NewSink()
	sink.Event("request", 1.0, obs.F("latency_sec", 0.5))
	if _, ok := Decode(sink.Events()[0]); ok {
		t.Fatal("Decode accepted a non-span stream")
	}
	if n := len(Decoded(sink)); n != 0 {
		t.Fatalf("Decoded returned %d spans from a span-free sink", n)
	}
}
