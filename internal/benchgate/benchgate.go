// Package benchgate turns a package's micro-benchmarks into allocation
// gates: each row runs under testing.Benchmark inside an ordinary test
// and fails when its B/op or allocs/op exceed a literal bound. A gated
// benchmark keeps its setup and warm-up outside the timed region, so
// its figures do not depend on b.N and the gates hold on any machine
// and under -race. ns/op is not gated: whperf owns timing.
//
// A bound is the row's last recorded figure v plus an amortization
// slack of max(v/64, 32) B and max(v/64, 1) allocs per op, so growth
// fails a row once it passes that slack. Where a row reads higher under
// -race (the race runtime's goroutine bookkeeping, or a sync.Pool it
// drops from), v is the -race figure.
package benchgate

import "testing"

// Row is one gated benchmark.
type Row struct {
	Name      string
	Bench     func(*testing.B)
	MaxBytes  int64 // B/op bound
	MaxAllocs int64 // allocs/op bound
}

// Check runs every row as a subtest, logs its figures and fails the
// rows that exceed their bounds.
func Check(t *testing.T, rows []Row) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			res := testing.Benchmark(r.Bench)
			if res.N == 0 {
				t.Fatal("benchmark failed")
			}
			bytes, allocs := res.AllocedBytesPerOp(), res.AllocsPerOp()
			t.Logf("%d iters: %d B/op (bound %d), %d allocs/op (bound %d)",
				res.N, bytes, r.MaxBytes, allocs, r.MaxAllocs)
			if bytes > r.MaxBytes {
				t.Errorf("%d B/op exceeds the %d B/op bound", bytes, r.MaxBytes)
			}
			if allocs > r.MaxAllocs {
				t.Errorf("%d allocs/op exceeds the %d allocs/op bound", allocs, r.MaxAllocs)
			}
		})
	}
}
