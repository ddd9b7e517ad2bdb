package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
)

// runCompare implements -compare A.json... -- B.json...: A is the
// parent, B the change. For every workload x metric it prints each
// side's median and quartiles and a verdict (see verdict), and it exits
// non-zero when any row is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	var a, b []string
	cur := &a
	for _, arg := range args {
		if arg == "--" {
			cur = &b
			continue
		}
		*cur = append(*cur, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "whperf: -compare needs result files on both sides: -compare A.json... -- B.json...")
		return 2
	}
	sa, err := loadSets(a)
	if err == nil {
		var sb []resultSet
		sb, err = loadSets(b)
		if err == nil {
			return printComparison(sa, sb, stdout)
		}
	}
	fmt.Fprintf(stderr, "whperf: %v\n", err)
	return 1
}

func loadSets(paths []string) ([]resultSet, error) {
	var out []resultSet
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// samples collects one metric of one workload across sets, in set order.
func samples(sets []resultSet, workload, metric string) []float64 {
	var xs []float64
	for _, s := range sets {
		if v, ok := s.Results[workload].Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func printComparison(a, b []resultSet, stdout io.Writer) int {
	names := map[string]bool{}
	for _, s := range append(append([]resultSet(nil), a...), b...) {
		for w := range s.Results {
			names[w] = true
		}
	}
	var wls []string
	for _, w := range workloadNames() {
		if names[w] {
			wls = append(wls, w)
			delete(names, w)
		}
	}
	var rest []string
	for w := range names {
		rest = append(rest, w)
	}
	sort.Strings(rest)
	wls = append(wls, rest...)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A (base: A median)\tverdict")
	code := 0
	for _, w := range wls {
		for _, tbl := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range tbl {
				xa, xb := samples(a, w, d.Name), samples(b, w, d.Name)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				v := verdict(d, xa, xb)
				if v == "worse" {
					code = 1
				}
				ma, mb := median(xa), median(xb)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s (base %s %s)\t%s\n", w, d.Name, d.Unit,
					summary(xa), summary(xb), num(mb/ma), num(ma), d.Unit, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return code
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s, %s] n=%d", num(median(xs)), num(q1), num(q3), len(xs))
}

// verdict judges the change B against the parent A on one metric:
//
//   - "info" for a metric with no bound (the per-layer ones);
//   - "unresolved" when either side's spread (interquartile range as a
//     share of its median) is wider than the bound, unless every B run
//     reads better than every A run, which is "improved";
//   - "worse" when B's median is worse than A's by more than the bound;
//   - "improved" when B wins at least 9 in 10 of the pairs (A[i], B[i]),
//     ties counting for neither, and the medians differ by more than A's
//     interquartile range;
//   - "unchanged" otherwise.
func verdict(d metricDef, a, b []float64) string {
	if d.Bound == 0 {
		return "info"
	}
	better := func(x, y float64) bool { // x reads better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	if (qa3-qa1)/math.Abs(ma) > d.Bound || (qb3-qb1)/math.Abs(mb) > d.Bound {
		maxB, minB := b[0], b[0]
		for _, x := range b {
			maxB, minB = math.Max(maxB, x), math.Min(minB, x)
		}
		allBetter := true
		for _, x := range a {
			worstB := maxB
			if d.Better == "higher" {
				worstB = minB
			}
			allBetter = allBetter && better(worstB, x)
		}
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	worseBy := (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > d.Bound {
		return "worse"
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if better(mb, ma) && wins*10 >= pairs*9 && math.Abs(mb-ma) > qa3-qa1 {
		return "improved"
	}
	return "unchanged"
}
