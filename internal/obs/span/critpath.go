package span

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"warehousesim/internal/obs"
)

// Attribution categories. Every leaf span maps to exactly one bucket,
// so the shares sum to 100% of traced request time:
//
//   - "queue":         waiting for a free server at any resource
//   - "service":       cpu/net server occupancy, minus the remote-memory
//     share carved out of it (see below)
//   - "remote-memory": memory-blade page-swap stalls (swap spans); when
//     a swap span is nested inside a service span its time moves from
//     service to remote-memory instead of double-counting
//   - "disk":          storage-station occupancy and SAN round trips
const (
	CatQueue     = "queue"
	CatService   = "service"
	CatRemoteMem = "remote-memory"
	CatDisk      = "disk"
	CatOther     = "other"
)

// categories is the fixed presentation order.
var categories = [...]string{CatQueue, CatService, CatRemoteMem, CatDisk}

// Row is one category of the attribution table.
type Row struct {
	Category string
	// TotalSec is the summed span time in this category across all
	// completed sampled requests (time-axis units).
	TotalSec float64
	// Share is TotalSec over the sum of all categories, in [0,1].
	Share float64
	// P50/P95/P99 are per-request time in this category (nearest-rank
	// over completed sampled requests, zero-contributions included).
	P50, P95, P99 float64
}

// Attribution is the critical-path latency-attribution table built
// from a run's span stream.
type Attribution struct {
	// Requests is the number of sampled requests analyzed (one per root
	// span; trees are emitted at completion, so every one is complete).
	Requests int
	// TotalSec sums every category (== total attributed time); RootSec
	// sums the root request spans, for reconciliation: the two agree to
	// floating-point rounding because children tile their root.
	TotalSec float64
	RootSec  float64
	Rows     []Row
}

// categorize maps one leaf span to its attribution bucket.
func categorize(s Span) string {
	switch s.Kind {
	case KindQueue:
		return CatQueue
	case KindSwap:
		return CatRemoteMem
	case KindStorage:
		return CatDisk
	case KindService:
		if s.Res == "disk" {
			return CatDisk
		}
		return CatService
	default:
		return CatOther
	}
}

// Analyze aggregates a run's span events into the attribution table,
// one request per root span, grouped by the spans' Req. Spans without
// a root are skipped; CBF sub-spans are detail inside their swap parent
// and are not double-counted.
func Analyze(src *obs.Sink) Attribution {
	spans := Decoded(src)

	// Pass 1: per-request state and the service spans swap time must be
	// carved out of.
	type reqAgg struct {
		cats    map[string]float64
		rootDur float64
		hasRoot bool
	}
	reqs := map[int64]*reqAgg{}
	agg := func(req int64) *reqAgg {
		a := reqs[req]
		if a == nil {
			a = &reqAgg{cats: map[string]float64{}}
			reqs[req] = a
		}
		return a
	}
	serviceOwner := map[int64]int64{} // service span id -> req
	for _, s := range spans {
		if s.Kind == KindService {
			serviceOwner[s.ID] = s.Req
		}
	}
	for _, s := range spans {
		a := agg(s.Req)
		switch s.Kind {
		case KindRequest:
			a.hasRoot = true
			a.rootDur = s.Dur
		case KindCBF:
			// detail inside its swap parent; the swap already counts
		case KindSwap:
			a.cats[CatRemoteMem] += s.Dur
			if _, ok := serviceOwner[s.Parent]; ok {
				// Nested in a service span: move the time out of service
				// so the buckets still tile the request.
				a.cats[CatService] -= s.Dur
			}
		default:
			a.cats[categorize(s)] += s.Dur
		}
	}

	// Pass 2: totals and per-request percentile inputs over rooted
	// requests, in sorted request order for determinism.
	ids := make([]int64, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := Attribution{}
	perReq := map[string][]float64{}
	for _, id := range ids {
		a := reqs[id]
		if !a.hasRoot {
			continue
		}
		out.Requests++
		out.RootSec += a.rootDur
		for _, cat := range categories {
			v := a.cats[cat]
			out.TotalSec += v
			perReq[cat] = append(perReq[cat], v)
		}
		if v := a.cats[CatOther]; v != 0 {
			out.TotalSec += v
			perReq[CatOther] = append(perReq[CatOther], v)
		}
	}

	order := categories[:]
	if len(perReq[CatOther]) > 0 {
		order = append(append([]string{}, order...), CatOther)
	}
	for _, cat := range order {
		vs := perReq[cat]
		row := Row{Category: cat}
		for _, v := range vs {
			row.TotalSec += v
		}
		if out.TotalSec > 0 {
			row.Share = row.TotalSec / out.TotalSec
		}
		sort.Float64s(vs)
		row.P50 = quantile(vs, 0.50)
		row.P95 = quantile(vs, 0.95)
		row.P99 = quantile(vs, 0.99)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// quantile is the nearest-rank quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String renders the fixed-width table whsim prints.
func (a Attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency attribution (%d requests):\n", a.Requests)
	fmt.Fprintf(&b, "  %-14s %12s %8s %10s %10s %10s\n",
		"category", "total-sec", "share", "p50-ms", "p95-ms", "p99-ms")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "  %-14s %12.4f %7.1f%% %10.3f %10.3f %10.3f\n",
			r.Category, r.TotalSec, r.Share*100, r.P50*1e3, r.P95*1e3, r.P99*1e3)
	}
	fmt.Fprintf(&b, "  %-14s %12.4f %7.1f%%\n", "total", a.TotalSec, sumShare(a.Rows)*100)
	return b.String()
}

func sumShare(rows []Row) float64 {
	s := 0.0
	for _, r := range rows {
		s += r.Share
	}
	return s
}

// WriteCSV exports the table as CSV with the columns
// category,total_sec,share,p50_sec,p95_sec,p99_sec plus a final total
// row. Output is deterministic for same-seed runs.
func (a Attribution) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	fnum := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	_ = cw.Write([]string{"category", "total_sec", "share", "p50_sec", "p95_sec", "p99_sec"})
	for _, r := range a.Rows {
		_ = cw.Write([]string{r.Category, fnum(r.TotalSec), fnum(r.Share),
			fnum(r.P50), fnum(r.P95), fnum(r.P99)})
	}
	_ = cw.Write([]string{"total", fnum(a.TotalSec), fnum(sumShare(a.Rows)), "", "", ""})
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile exports the table to path.
func (a Attribution) WriteCSVFile(path string) error { return obs.ExportFile(path, a.WriteCSV) }
