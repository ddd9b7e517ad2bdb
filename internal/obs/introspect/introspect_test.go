package introspect

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"warehousesim/internal/obs"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestObsEndpointServesLatestSnapshot(t *testing.T) {
	in := New()
	srv := httptest.NewServer(in.Handler())
	defer srv.Close()

	// Before any publish: 503 with a JSON error body, so a poller can
	// tell a warming-up server from a broken one.
	code, body := get(t, srv, "/obs")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("initial /obs = %d %q, want 503", code, body)
	}
	var errDoc struct {
		Error    string `json:"error"`
		Endpoint string `json:"endpoint"`
	}
	if err := json.Unmarshal(body, &errDoc); err != nil || errDoc.Error == "" || errDoc.Endpoint != "/obs" {
		t.Fatalf("initial /obs body = %q (parse err %v)", body, err)
	}

	// Publish a real sink snapshot and read it back.
	sink := obs.NewSink()
	sink.Count("requests", 42)
	sink.Gauge("util.cpu", 1.0, 0.5)
	sink.Gauge("util.cpu", 2.0, 0.75)
	sink.Observe("latency_sec", 0.010)
	snap, err := obs.Snapshot(obs.Progress{Phase: "replay", SimTimeSec: 30, HorizonSec: 120}, sink)
	if err != nil {
		t.Fatal(err)
	}
	in.Publish(snap)

	code, body = get(t, srv, "/obs")
	if code != http.StatusOK {
		t.Fatalf("/obs status %d", code)
	}
	var doc struct {
		Progress obs.Progress     `json:"progress"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]struct {
			T float64 `json:"T"`
			V float64 `json:"V"`
		} `json:"gauges"`
		Hists map[string]struct {
			Count int64 `json:"count"`
		} `json:"hists"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/obs returned invalid JSON: %v\n%s", err, body)
	}
	if doc.Progress.Phase != "replay" || doc.Progress.Fraction != 0.25 {
		t.Errorf("progress = %+v, want replay at fraction 0.25", doc.Progress)
	}
	if doc.Counters["requests"] != 42 {
		t.Errorf("counters = %v", doc.Counters)
	}
	if g := doc.Gauges["util.cpu"]; g.V != 0.75 {
		t.Errorf("gauge shows %+v, want the last point 0.75", g)
	}
	if doc.Hists["latency_sec"].Count != 1 {
		t.Errorf("hists = %v", doc.Hists)
	}
}

// TestWindowsAndShardsEndpoints: the windowed-SLO and energy documents
// are published and served independently of the snapshot, with the same
// 503-before-first-publish contract, and the retired shard-telemetry
// route answers 404.
func TestWindowsAndShardsEndpoints(t *testing.T) {
	in := New()
	srv := httptest.NewServer(in.Handler())
	defer srv.Close()

	if code, _ := get(t, srv, "/obs/shards"); code != http.StatusNotFound {
		t.Fatalf("/obs/shards = %d, want 404 (the route is gone)", code)
	}
	for _, path := range []string{"/obs/windows", "/obs/energy"} {
		code, body := get(t, srv, path)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("initial %s = %d %q, want 503", path, code, body)
		}
		if !json.Valid(body) {
			t.Fatalf("initial %s body is not JSON: %q", path, body)
		}
	}

	in.PublishWindows([]byte(`{"schema":"warehousesim-windows/v1","parts":[]}`))
	code, body := get(t, srv, "/obs/windows")
	if code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/obs/windows after publish = %d %q", code, body)
	}
	// /obs is still unpublished.
	if code, _ := get(t, srv, "/obs"); code != http.StatusServiceUnavailable {
		t.Fatalf("/obs = %d, want 503 (only windows was published)", code)
	}

	if code, _ := get(t, srv, "/obs/energy"); code != http.StatusServiceUnavailable {
		t.Fatalf("/obs/energy = %d, want 503 (never published)", code)
	}
	in.PublishEnergy([]byte(`{"schema":"warehousesim-energy-live/v1","parts":[]}`))
	code, body = get(t, srv, "/obs/energy")
	if code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/obs/energy after publish = %d %q", code, body)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	srv := httptest.NewServer(New().Handler())
	defer srv.Close()
	if code, body := get(t, srv, "/"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("index = %d (%d bytes)", code, len(body))
	}
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path returned %d", code)
	}
}

func TestPprofEndpoints(t *testing.T) {
	srv := httptest.NewServer(New().Handler())
	defer srv.Close()
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index = %d", code)
	}
	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", code)
	}
}

func TestServeBindsAndStops(t *testing.T) {
	in := New()
	bound, stop, err := in.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in.Publish([]byte(`{}`))
	resp, err := http.Get("http://" + bound + "/obs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("served /obs = %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + bound + "/obs"); err == nil {
		t.Fatal("server still reachable after stop")
	}
}
