package span

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"warehousesim/internal/obs"
)

// WriteTrace exports the sink's span stream as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each span
// becomes one complete ("X") event: ts/dur are the span start/duration
// scaled to microseconds (the trace-event unit; simulated seconds for
// DES runs, access-index units for trace replays), tid is the request
// number (see Span.Req) — so Perfetto renders one lane per sampled
// request with queue/service/swap slices nested under the request
// slice — and args carry the span/parent IDs for causal navigation.
//
// The writer is hand-rolled rather than encoding/json-driven so the
// object key order and number formatting are fixed: two same-seed runs
// export byte-identical files (the same-seed double-run tests compare
// them).
func WriteTrace(w io.Writer, src *obs.Sink) error {
	bw := bufio.NewWriter(w)
	m := src.Manifest()
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":%s,\"workload\":%s,\"system\":%s,\"seed\":\"%d\"},\"traceEvents\":[\n",
		quote("warehousesim-trace/v1"), quote(m.Workload), quote(m.System), m.Seed)

	proc := m.Workload
	if m.System != "" {
		proc += "@" + m.System
	}
	if proc == "" {
		proc = "run"
	}
	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":%s}}", quote(proc))

	for _, s := range Decoded(src) {
		bw.WriteString(",\n")
		name := s.Kind
		if s.Res != "" && s.Res != s.Kind && s.Kind != KindRequest {
			name = s.Res + "." + s.Kind
		}
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}",
			quote(name), quote(s.Kind), num(s.Start*1e6), num(s.Dur*1e6), s.Req, s.ID, s.Parent)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteTraceFile exports the span trace to path.
func WriteTraceFile(path string, src *obs.Sink) error {
	return obs.ExportFile(path, func(w io.Writer) error { return WriteTrace(w, src) })
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func quote(s string) string { return strconv.Quote(s) }
