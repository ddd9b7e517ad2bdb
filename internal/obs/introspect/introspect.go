// Package introspect serves live run introspection over HTTP: the
// latest obs snapshot (progress, counters, gauges, histogram summaries)
// plus the windowed-SLO and shard-telemetry documents, alongside the
// standard pprof profiling endpoints.
//
// It lives apart from package obs on purpose: obs is linked into every
// simulator and the benchmark harness, and pulling net/http into those
// binaries shifts their allocation profile (the B/op figures the bench
// records track). Only CLIs that actually serve HTTP import this
// package.
package introspect

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the live run-introspection endpoint: the simulation
// goroutine publishes immutable snapshot documents (typically from a
// probe tick, via obs.Sink.Snapshot), and an HTTP server serves the
// latest one alongside the standard pprof handlers. Because handlers
// only ever read the last published bytes, an attached introspection
// server can never perturb the DES — there is no locking on the
// simulation side beyond the publish itself, and no simulator state is
// reached from handlers.
//
// Each document endpoint answers 503 with a JSON error body until its
// first publish: "no data yet" is distinguishable from "an empty
// snapshot", so pollers starting before the run produces data can tell
// a warming-up server from a broken one.
type Server struct {
	mu      sync.RWMutex
	snap    []byte
	windows []byte
	shards  []byte
	energy  []byte
}

// New returns an endpoint with no published documents; every document
// endpoint serves 503 until its first publish.
func New() *Server {
	return &Server{}
}

// Publish replaces the served snapshot. The caller must not modify b
// afterwards.
func (in *Server) Publish(b []byte) {
	in.mu.Lock()
	in.snap = b
	in.mu.Unlock()
}

// PublishWindows replaces the served windowed-SLO document (see
// window.LiveSnapshot). The caller must not modify b afterwards.
func (in *Server) PublishWindows(b []byte) {
	in.mu.Lock()
	in.windows = b
	in.mu.Unlock()
}

// PublishShards replaces the served shard-telemetry document. The
// caller must not modify b afterwards.
func (in *Server) PublishShards(b []byte) {
	in.mu.Lock()
	in.shards = b
	in.mu.Unlock()
}

// PublishEnergy replaces the served energy document (see
// energy.LiveSnapshot). The caller must not modify b afterwards.
func (in *Server) PublishEnergy(b []byte) {
	in.mu.Lock()
	in.energy = b
	in.mu.Unlock()
}

// serveDoc writes the latest published document for endpoint, or a 503
// JSON error body before the first publish.
func (in *Server) serveDoc(w http.ResponseWriter, endpoint string, read func() []byte) {
	in.mu.RLock()
	b := read()
	in.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	if b == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"error":"no snapshot published yet","endpoint":%q}`+"\n", endpoint)
		return
	}
	w.Write(b)
}

// Handler returns the introspection mux:
//
//	/             index page
//	/obs          latest snapshot (progress, counters, gauges, hists)
//	/obs/windows  live windowed-SLO summaries per partition
//	/obs/shards   live shard-kernel self-telemetry
//	/obs/energy   live per-partition energy windows (watts, joules)
//	/debug/pprof  the standard runtime profiling endpoints
func (in *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "warehousesim live introspection\n\n"+
			"  /obs           latest obs snapshot (progress, counters, gauges, hists)\n"+
			"  /obs/windows   live windowed-SLO summaries per partition\n"+
			"  /obs/shards    live shard-kernel self-telemetry\n"+
			"  /obs/energy    live per-partition energy windows (watts, joules)\n"+
			"  /debug/pprof/  runtime profiles (heap, profile, trace, ...)\n")
	})
	mux.HandleFunc("/obs", func(w http.ResponseWriter, r *http.Request) {
		in.serveDoc(w, "/obs", func() []byte { return in.snap })
	})
	mux.HandleFunc("/obs/windows", func(w http.ResponseWriter, r *http.Request) {
		in.serveDoc(w, "/obs/windows", func() []byte { return in.windows })
	})
	mux.HandleFunc("/obs/shards", func(w http.ResponseWriter, r *http.Request) {
		in.serveDoc(w, "/obs/shards", func() []byte { return in.shards })
	})
	mux.HandleFunc("/obs/energy", func(w http.ResponseWriter, r *http.Request) {
		in.serveDoc(w, "/obs/energy", func() []byte { return in.energy })
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the introspection server on addr (e.g. ":6060"; use
// ":0" for an ephemeral port). It returns the bound address and a stop
// function; the server also dies with the process, so CLIs may ignore
// stop. Listen errors (port taken, bad address) surface synchronously.
func (in *Server) Serve(addr string) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: in.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// ServeAddr is the entry-point convenience for an optional -http flag:
// it returns (nil, "", nil) when addr is empty, otherwise a new Server
// already listening on addr for the process lifetime. Keeping this
// here — rather than in cliflags — keeps net/http out of the flag
// package's import graph, so only mains that opt in link the HTTP
// stack (see DESIGN.md §11, nohttp).
func ServeAddr(addr string) (*Server, string, error) {
	if addr == "" {
		return nil, "", nil
	}
	srv := New()
	bound, _, err := srv.Serve(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}
