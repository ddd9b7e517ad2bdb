// The distributed-grep job is a second application the engine tests
// run, a heavier map than word count, over both hand-written records and
// the generated corpus.

package mapreduce

import (
	"regexp"
	"strconv"
)

// grepMapper emits (matched-fragment, 1) for every regexp match in each
// record — the classic distributed-grep example from the MapReduce
// paper, included as a second CPU-heavier application.
type grepMapper struct {
	re *regexp.Regexp
}

// newGrepMapper compiles the pattern.
func newGrepMapper(pattern string) (*grepMapper, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return &grepMapper{re: re}, nil
}

// Map implements Mapper.
func (g *grepMapper) Map(record string, emit func(key, value string)) {
	for _, m := range g.re.FindAllString(record, -1) {
		emit(m, "1")
	}
}

// grepJob builds a distributed-grep job counting occurrences of each
// matched fragment.
func grepJob(input, output, pattern string) (Job, error) {
	m, err := newGrepMapper(pattern)
	if err != nil {
		return Job{}, err
	}
	return Job{
		Name:        "grep",
		Input:       input,
		Output:      output,
		Mapper:      m,
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		ReduceTasks: 8,
	}, nil
}

// topKReducer keeps only keys whose summed count reaches Threshold — a
// filter stage a grep pipeline can add to emit frequent matches only.
type topKReducer struct {
	Threshold int
}

// Reduce implements Reducer.
func (t topKReducer) Reduce(key string, values []string, emit func(key, value string)) {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			n = 1
		}
		sum += n
	}
	if sum >= t.Threshold {
		emit(key, strconv.Itoa(sum))
	}
}
