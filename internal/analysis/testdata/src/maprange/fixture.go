// Package fixture seeds maprange violations and each sanctioned idiom.
package fixture

import (
	"encoding/json"
	"sort"

	"warehousesim/internal/obs"
)

// export reaches an emission (json.Marshal), so its map iterations
// must be order-independent or sorted.
func export(m map[string]int) ([]byte, error) {
	total := 0
	for k, v := range m { // want maprange:"iteration order"
		total += len(k) + v
	}
	return json.Marshal(total)
}

// collectAndSort is the sanctioned sort idiom: collect keys, sort,
// iterate the slice.
func collectAndSort(m map[string]int) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return json.Marshal(out)
}

// keyedWrites is pointwise: every write lands at dst[k] for the range
// key, so iteration order cannot reach the marshaled result.
func keyedWrites(dst, src map[string]int) ([]byte, error) {
	for k, v := range src {
		dst[k] += v
	}
	return json.Marshal(len(dst))
}

// lazyKeyedWrites adds the lazy-initialization shape the obs merge
// paths use.
func lazyKeyedWrites(dst map[string]int, src map[string]int) ([]byte, error) {
	for k, v := range src {
		if dst == nil {
			dst = map[string]int{}
		}
		dst[k] = v
	}
	return json.Marshal(len(dst))
}

// deleteOnly loops are order-independent by construction.
func deleteOnly(m map[string]int) ([]byte, error) {
	for k := range m {
		delete(m, k)
	}
	return json.Marshal(len(m))
}

// pure never reaches an emission, so its iteration order is its own
// business.
func pure(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// indirect reaches the emission through an intra-package call, which
// the reachability pass must see.
func indirect(m map[string]int) {
	for k, v := range m { // want maprange:"iteration order"
		sink(k, v)
	}
}

func sink(k string, v int) {
	b, _ := json.Marshal(v)
	_ = append(b, k...)
}

// count's only emission is an obs.Sink method call.
func count(rec *obs.Sink, m map[string]int64) {
	for k, v := range m { // want maprange:"iteration order"
		rec.Count("trial."+k, v)
	}
}

// allowed shows directive suppression with a recorded justification.
func allowed(m map[string]int) ([]byte, error) {
	first := 0
	//whvet:allow maprange fixture: the loop result is a commutative reduction
	for _, v := range m {
		first += v
	}
	return json.Marshal(first)
}
