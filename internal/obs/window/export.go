package window

import (
	"bufio"
	"encoding/json"
	"io"

	"warehousesim/internal/obs"
)

// SchemaSLO identifies the -slo-out JSONL export.
const SchemaSLO = "warehousesim-slo/v1"

// SchemaLive identifies the /obs/windows live snapshot document.
const SchemaLive = "warehousesim-windows/v1"

// sloManifest is the export's first line: the window configuration and
// run totals. It deliberately carries no shard or parallelism count,
// so the whole file — not just a body — is byte-identical across shard
// counts and -par values at the same seed.
type sloManifest struct {
	Type             string  `json:"type"`
	Schema           string  `json:"schema"`
	WidthSec         float64 `json:"width_sec"`
	QoSLatencySec    float64 `json:"qos_latency_sec,omitempty"`
	QoSPercentile    float64 `json:"qos_percentile,omitempty"`
	Windows          int     `json:"windows"`
	ViolatingWindows int     `json:"violating_windows"`
	Episodes         int     `json:"episodes"`
	ViolationSec     float64 `json:"violation_sec"`
}

type windowLine struct {
	Type string `json:"type"`
	Summary
}

type episodeLine struct {
	Type        string  `json:"type"`
	DurationSec float64 `json:"duration_sec"`
	Episode
}

// WriteJSONL writes the sealed windows and episodes as JSONL: one
// slo_manifest line, one window line per sealed window in index order,
// one episode line per QoS episode. Maps marshal with sorted keys and
// the window fold order is fixed, so the output is deterministic.
// parts (optional) attribute episode blast radius; see Episodes.
func (c *Collector) WriteJSONL(w io.Writer, parts ...*Collector) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	eps := c.Episodes(parts...)
	sums := c.Windows()
	_, violating := c.Counts()
	if err := enc.Encode(sloManifest{
		Type: "slo_manifest", Schema: SchemaSLO,
		WidthSec: c.cfg.WidthSec, QoSLatencySec: c.cfg.QoSLatencySec,
		QoSPercentile: c.cfg.QoSPercentile,
		Windows:       len(sums), ViolatingWindows: violating,
		Episodes: len(eps), ViolationSec: ViolationSec(eps),
	}); err != nil {
		return err
	}
	for _, s := range sums {
		if err := enc.Encode(windowLine{Type: "window", Summary: s}); err != nil {
			return err
		}
	}
	for _, e := range eps {
		if err := enc.Encode(episodeLine{Type: "episode", DurationSec: e.DurationSec(), Episode: e}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the JSONL export to path.
func (c *Collector) WriteFile(path string, parts ...*Collector) error {
	return obs.ExportFile(path, func(w io.Writer) error { return c.WriteJSONL(w, parts...) })
}

// liveDoc is the /obs/windows snapshot: per-part sealed-window
// summaries as of the read. Live views are per part — merged
// percentiles need the histograms, which only the post-run fold sees —
// so a watcher follows each partition's recent tail and the -slo-out
// export carries the merged truth.
type liveDoc struct {
	Schema        string     `json:"schema"`
	WidthSec      float64    `json:"width_sec"`
	QoSLatencySec float64    `json:"qos_latency_sec,omitempty"`
	QoSPercentile float64    `json:"qos_percentile,omitempty"`
	Parts         []livePart `json:"parts"`
}

type livePart struct {
	Part    int       `json:"part"`
	Sealed  int       `json:"sealed"`
	Windows []Summary `json:"windows"`
}

// liveTail bounds how many recent windows each part contributes to a
// live snapshot.
const liveTail = 32

// LiveSnapshot marshals the parts' recent sealed windows into an
// immutable JSON document for the introspection server. Like every
// Collector method it runs on the parts' owning goroutine. Returns a
// valid document for zero parts.
func LiveSnapshot(parts []*Collector) ([]byte, error) {
	doc := liveDoc{Schema: SchemaLive, Parts: []livePart{}}
	for i, c := range parts {
		if i == 0 {
			cfg := c.Config()
			doc.WidthSec = cfg.WidthSec
			doc.QoSLatencySec = cfg.QoSLatencySec
			doc.QoSPercentile = cfg.QoSPercentile
		}
		sums, sealed := c.Recent(liveTail)
		doc.Parts = append(doc.Parts, livePart{Part: i, Sealed: sealed, Windows: sums})
	}
	return json.Marshal(doc)
}
