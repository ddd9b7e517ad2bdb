package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"warehousesim/internal/fanout"
)

// The exporters write every record kind in a fixed order — manifest,
// counters, histograms, series points, events — with names sorted and
// points/events in emission order, so two runs with the same seed
// produce byte-identical files.

type jsonlCounter struct {
	Type  string `json:"type"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonlHistBucket struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

type jsonlHist struct {
	Type      string            `json:"type"`
	Name      string            `json:"name"`
	Count     int64             `json:"count"`
	Underflow int64             `json:"underflow,omitempty"`
	Mean      float64           `json:"mean"`
	Min       float64           `json:"min"`
	Max       float64           `json:"max"`
	P50       float64           `json:"p50"`
	P95       float64           `json:"p95"`
	P99       float64           `json:"p99"`
	Buckets   []jsonlHistBucket `json:"buckets,omitempty"`
}

type jsonlManifest struct {
	Type string `json:"type"`
	Manifest
}

// The sample and event lines of a large export are formatted in chunks
// of exportChunk lines on up to exportWorkers goroutines, no more than
// GOMAXPROCS, and written in order from the caller's goroutine. An
// export of fewer lines than two chunks hold, or one with one CPU to
// run on, is formatted on the caller's goroutine alone, in chunks of
// about serialBytes.
const (
	exportWorkers = 4
	exportChunk   = 256
	serialBytes   = 4096
)

// WriteJSONL exports the sink as JSON Lines: one manifest line, then
// one line per counter, histogram, series point and event record. The
// bytes are the same at any GOMAXPROCS.
func (s *Sink) WriteJSONL(w io.Writer) error {
	return s.writeJSONL(w, min(runtime.GOMAXPROCS(0), exportWorkers), exportChunk)
}

// writeJSONL is WriteJSONL formatting chunks of chunk lines on up to
// workers goroutines. Chunk i is formatted into slot i%len(ring) of a
// ring of buffers and written from there on the caller's goroutine;
// fanout.Window starts it only once chunk i-len(ring) has been written,
// so no buffer is touched by two chunks at once, and the ring's
// buffers, sized once, serve every chunk.
func (s *Sink) writeJSONL(w io.Writer, workers, chunk int) error {
	x := newJSONLBody(s)
	n := x.lines()
	ring := make([][]byte, workers+1)
	if workers < 2 || n < 2*chunk {
		ring, chunk = ring[:1], max(1, serialBytes/x.est)
	}
	for i := range ring {
		ring[i] = make([]byte, 0, chunk*x.est)
	}
	head, err := s.writeHead(w, ring[0])
	if err != nil {
		return err
	}
	ring[0] = head[:0]
	var werr error
	_, err = fanout.Window(workers, len(ring), (n+chunk-1)/chunk, func(_, i int) error {
		b := &ring[i%len(ring)]
		var err error
		*b, err = x.appendLines((*b)[:0], i*chunk, min(i*chunk+chunk, n))
		return err
	}, func(i int) bool {
		_, werr = w.Write(ring[i%len(ring)])
		return werr == nil
	})
	if err != nil {
		return err
	}
	return werr
}

// writeHead writes the manifest, counter and histogram lines to w,
// encoded into b. It returns b, grown if the lines needed more room.
func (s *Sink) writeHead(w io.Writer, b []byte) ([]byte, error) {
	hb := bytes.NewBuffer(b)
	enc := json.NewEncoder(hb)
	if err := enc.Encode(jsonlManifest{Type: "manifest", Manifest: s.manifest}); err != nil {
		return b, err
	}
	for _, name := range sortedKeys(s.counters) {
		if err := enc.Encode(jsonlCounter{Type: "counter", Name: name, Value: s.counters[name].n}); err != nil {
			return b, err
		}
	}
	for _, name := range sortedKeys(s.hists) {
		h := s.hists[name]
		rec := jsonlHist{
			Type: "hist", Name: name,
			Count: h.count, Underflow: h.underflow,
			Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
		for i, n := range h.buckets {
			if n > 0 {
				rec.Buckets = append(rec.Buckets, jsonlHistBucket{LE: histUpperBound(i), N: n})
			}
		}
		if err := enc.Encode(rec); err != nil {
			return b, err
		}
	}
	_, err := w.Write(hb.Bytes())
	return hb.Bytes(), err
}

// WriteCSV exports the sink as one flat CSV table with the columns
// kind,name,t,value,fields. Counters and histogram summary statistics
// leave t empty; events pack their fields as "k=v;..." in emission
// order.
func (s *Sink) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec ...string) {
		// csv.Writer defers errors to Error(); checked once at the end.
		_ = cw.Write(rec)
	}
	fnum := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	write("kind", "name", "t", "value", "fields")
	m := s.manifest
	manifest := []Field{
		FS("schema", m.Schema), FS("workload", m.Workload), FS("system", m.System),
		FS("seed", strconv.FormatUint(m.Seed, 10)), FS("go_version", m.GoVersion),
		F("sim_time_sec", m.SimTimeSec), F("events", float64(m.Events)),
		F("events_per_sim_sec", m.EventsPerSimSec),
	}
	for _, k := range sortedKeys(m.Config) {
		manifest = append(manifest, FS("config."+k, m.Config[k]))
	}
	write("manifest", "run", "", "", packFields(manifest))

	for _, name := range sortedKeys(s.counters) {
		write("counter", name, "", strconv.FormatInt(s.counters[name].n, 10), "")
	}
	for _, name := range sortedKeys(s.hists) {
		h := s.hists[name]
		write("hist", name, "", strconv.FormatInt(h.count, 10), packFields([]Field{
			F("mean", h.Mean()), F("min", h.Min()), F("max", h.Max()),
			F("p50", h.Quantile(0.50)), F("p95", h.Quantile(0.95)), F("p99", h.Quantile(0.99)),
		}))
	}
	for _, name := range sortedKeys(s.series) {
		for _, p := range s.series[name].Points {
			write("sample", name, fnum(p.T), fnum(p.V), "")
		}
	}
	s.EachEvent(func(e EventRecord) {
		write("event", e.Stream, fnum(e.T), "", packFields(e.Fields))
	})
	cw.Flush()
	return cw.Error()
}

func packFields(fields []Field) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		if f.IsStr {
			parts[i] = f.Key + "=" + f.Str
		} else {
			parts[i] = f.Key + "=" + strconv.FormatFloat(f.Num, 'g', -1, 64)
		}
	}
	return strings.Join(parts, ";")
}

// WriteFile exports the sink to path, choosing the format from the
// extension: ".csv" writes CSV, anything else JSONL.
func (s *Sink) WriteFile(path string) error {
	write := s.WriteJSONL
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		write = s.WriteCSV
	}
	return ExportFile(path, write)
}

// ExportFile creates the file at path, fills it with write and closes
// it, also when write fails. A failed create, write or close comes back
// as an error naming the path.
func ExportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: writing %s: %w", path, werr)
	}
	return nil
}
