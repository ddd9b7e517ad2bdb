package span

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"warehousesim/internal/obs"
)

// emitRequest records one completed request whose children tile the
// root exactly: queue then service per resource, with swapSec of the
// cpu service nested as a remote-memory span. The root comes first, as
// the simulators emit it at completion.
func emitRequest(tr *Tracer, req int64, start, cpuQ, cpuS, swapSec, diskQ, diskS float64) {
	t := start
	root := tr.Emit(0, req, KindRequest, "request", t, t+cpuQ+cpuS+diskQ+diskS)
	tr.Emit(root, req, KindQueue, "cpu", t, t+cpuQ)
	t += cpuQ
	sid := tr.Emit(root, req, KindService, "cpu", t, t+cpuS)
	if swapSec > 0 {
		tr.Emit(sid, req, KindSwap, "memblade", t, t+swapSec)
	}
	t += cpuS
	tr.Emit(root, req, KindQueue, "disk", t, t+diskQ)
	t += diskQ
	tr.Emit(root, req, KindService, "disk", t, t+diskS)
}

func TestAnalyzeKnownBreakdown(t *testing.T) {
	sink := obs.NewSink()
	tr := NewTracer(sink, 1)
	// Two requests with hand-computable totals:
	//   queue 1+2 + 3+4 = 10, cpu service (6-1)+(8-2)=11 after the swap
	//   carve-out, remote-memory 1+2=3, disk service 5+7=12.
	emitRequest(tr, 0, 0, 1, 6, 1, 3, 5)
	emitRequest(tr, 1, 100, 2, 8, 2, 4, 7)
	a := Analyze(sink)

	if a.Requests != 2 {
		t.Fatalf("requests = %d, want 2", a.Requests)
	}
	want := map[string]float64{
		CatQueue: 10, CatService: 11, CatRemoteMem: 3, CatDisk: 12,
	}
	got := map[string]float64{}
	for _, r := range a.Rows {
		got[r.Category] = r.TotalSec
	}
	for cat, w := range want {
		if math.Abs(got[cat]-w) > 1e-9 {
			t.Errorf("%s total = %g, want %g", cat, got[cat], w)
		}
	}
	// The buckets tile the requests: category sum == root sum, and the
	// shares sum to exactly 100%.
	if math.Abs(a.TotalSec-a.RootSec) > 1e-9 {
		t.Errorf("category sum %g != root sum %g", a.TotalSec, a.RootSec)
	}
	if s := sumShare(a.Rows); math.Abs(s-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", s)
	}
}

func TestAnalyzeCBFNotDoubleCounted(t *testing.T) {
	sink := obs.NewSink()
	tr := NewTracer(sink, 1)
	root := tr.Emit(0, 0, KindRequest, "request", 0, 4)
	sid := tr.Emit(root, 0, KindService, "cpu", 0, 4)
	swap := tr.Emit(sid, 0, KindSwap, "memblade", 0, 1)
	tr.Emit(swap, 0, KindCBF, "", 0, 0.2) // detail inside the swap
	a := Analyze(sink)
	got := map[string]float64{}
	for _, r := range a.Rows {
		got[r.Category] = r.TotalSec
	}
	if got[CatRemoteMem] != 1 {
		t.Errorf("remote-memory = %g, want 1 (cbf must not add)", got[CatRemoteMem])
	}
	if got[CatService] != 3 {
		t.Errorf("service = %g, want 3 after swap carve-out", got[CatService])
	}
}

func TestAnalyzePercentiles(t *testing.T) {
	sink := obs.NewSink()
	tr := NewTracer(sink, 1)
	// 100 requests with queue time = i ms and nothing else.
	for i := 0; i < 100; i++ {
		end := float64(i) + float64(i)*1e-3
		root := tr.Emit(0, int64(i), KindRequest, "request", float64(i), end)
		tr.Emit(root, int64(i), KindQueue, "cpu", float64(i), end)
	}
	a := Analyze(sink)
	var q Row
	for _, r := range a.Rows {
		if r.Category == CatQueue {
			q = r
		}
	}
	// Nearest-rank over 0..99 ms.
	if math.Abs(q.P50-0.049) > 1e-12 || math.Abs(q.P95-0.094) > 1e-12 || math.Abs(q.P99-0.098) > 1e-12 {
		t.Errorf("p50/p95/p99 = %g/%g/%g, want 0.049/0.094/0.098", q.P50, q.P95, q.P99)
	}
}

func TestAttributionOutputsDeterministic(t *testing.T) {
	mk := func() Attribution {
		sink := obs.NewSink()
		tr := NewTracer(sink, 1)
		emitRequest(tr, 0, 0, 1, 6, 1, 3, 5)
		emitRequest(tr, 1, 100, 2, 8, 2, 4, 7)
		return Analyze(sink)
	}
	a, b := mk(), mk()
	var ca, cb bytes.Buffer
	if err := a.WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("same spans produced different CSVs")
	}
	if a.String() != b.String() {
		t.Fatal("same spans produced different tables")
	}
	// CSV shape: header + one row per category + total.
	lines := strings.Split(strings.TrimSpace(ca.String()), "\n")
	if len(lines) != 1+len(a.Rows)+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(a.Rows)+1)
	}
	if lines[0] != "category,total_sec,share,p50_sec,p95_sec,p99_sec" {
		t.Fatalf("csv header = %q", lines[0])
	}
}
