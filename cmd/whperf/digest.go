package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
	"strconv"

	"warehousesim/internal/cluster"
)

// digest is a SHA-256 over every simulated statistic an op produced.
// Floats are written in full ('g', -1), so two runs agree only if they
// agree bit for bit. It is also an io.Writer, so exports are hashed as
// they are serialised.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

// Write implements io.Writer.
func (d *digest) Write(p []byte) (int, error) { return d.h.Write(p) }

func (d *digest) token(b []byte) {
	d.h.Write(b)
	d.h.Write([]byte{0})
}

func (d *digest) str(s string) { d.token([]byte(s)) }

func (d *digest) num(vs ...float64) {
	for _, v := range vs {
		d.buf = strconv.AppendFloat(d.buf[:0], v, 'g', -1, 64)
		d.token(d.buf)
	}
}

func (d *digest) integer(v int) {
	d.buf = strconv.AppendInt(d.buf[:0], int64(v), 10)
	d.token(d.buf)
}

func (d *digest) boolean(v bool) { d.str(strconv.FormatBool(v)) }

// util hashes a utilization map in sorted key order.
func (d *digest) util(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.integer(len(keys))
	for _, k := range keys {
		d.str(k)
		d.num(m[k])
	}
}

// result hashes a Result's fields, sorted utilization and, for fleet
// runs, the per-rack breakdown.
func (d *digest) result(r cluster.Result) {
	d.num(r.Throughput, r.Perf, r.MeanLatency, r.P95Latency, r.ExecTime)
	d.boolean(r.QoSMet)
	d.str(r.Bottleneck)
	d.integer(r.Clients)
	d.util(r.Utilization)
	fb := r.Fleet
	if fb == nil {
		d.str("no-fleet")
		return
	}
	d.integer(fb.Racks)
	d.integer(len(fb.HotIDs))
	for _, id := range fb.HotIDs {
		d.integer(id)
	}
	d.str(fb.Balancer)
	d.num(fb.PerRackDemand, fb.ColdDemand, fb.ColdUnserved)
	for _, rr := range fb.RackResults {
		d.integer(rr.ID)
		d.boolean(rr.Hot)
		d.num(rr.Throughput, rr.MeanLatency, rr.P95Latency)
		d.boolean(rr.QoSMet)
		d.util(rr.Utilization)
		d.integer(rr.Clients)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
