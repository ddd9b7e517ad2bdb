package obs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// WriteJSONL exports the sink as JSON Lines: one manifest line, then
// one line per counter, histogram, series point and event record.
func (s *Sink) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	if err := enc.Encode(jsonlManifest{Type: "manifest", Manifest: s.manifest}); err != nil {
		return err
	}
	for _, name := range sortedKeys(s.counters) {
		if err := enc.Encode(jsonlCounter{Type: "counter", Name: name, Value: s.counters[name].n}); err != nil {
			return err
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
			return err
		}
	}
	var l jsonlLine
	var prefix []byte
	for _, name := range sortedKeys(s.series) {
		// Every point of a series shares its line up to the time.
		prefix = appendJSONString(append(prefix[:0], `{"type":"sample","series":`...), name)
		prefix = append(prefix, `,"t":`...)
		for _, p := range s.series[name].Points {
			if err := l.sample(prefix, p); err != nil {
				return fmt.Errorf("series %q point at t=%v: %w", name, p.T, err)
			}
			if _, err := bw.Write(l.buf); err != nil {
				return err
			}
		}
	}
	// A run's export holds a few event layouts: whsim's traced runs
	// and whperf's telemetry and fleet exports hold 2 to 4, with at
	// most 21 fields and 488 bytes of line pieces. Those fit in buffers
	// on the stack, which keep three allocations off every export;
	// encodeLines allocates where they are too small.
	var small struct {
		buf     [1024]byte
		layouts [16]lineLayout
		fields  [64]lineField
	}
	lines := encodeLines(s, eventLines{buf: small.buf[:0], layouts: small.layouts[:0], fields: small.fields[:0]})
	for _, r := range s.rows {
		if err := l.event(s, &lines, r); err != nil {
			return fmt.Errorf("%q event at t=%v: %w", s.layouts[r.layout].stream, r.t, err)
		}
		if _, err := bw.Write(l.buf); err != nil {
			return err
		}
	}
	return bw.Flush()
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
