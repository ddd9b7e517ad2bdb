package mapreduce

import (
	"fmt"
	"strconv"
	"strings"

	"warehousesim/internal/stats"
)

// WordCountMapper tokenizes records and emits (word, 1) — the paper's
// mapreduce-wc job.
type WordCountMapper struct{}

// Map implements Mapper.
func (WordCountMapper) Map(record string, emit func(key, value string)) {
	for _, w := range strings.Fields(record) {
		emit(w, "1")
	}
}

// SumReducer adds integer values per key (word count's reducer and
// combiner).
type SumReducer struct{}

// Reduce implements Reducer.
func (SumReducer) Reduce(key string, values []string, emit func(key, value string)) {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			// Malformed intermediate data is a programming error in this
			// closed system; count it as 1 to stay total.
			n = 1
		}
		sum += n
	}
	emit(key, strconv.Itoa(sum))
}

// CorpusConfig sizes the synthetic text corpus for word count.
type CorpusConfig struct {
	// TotalBytes of text to generate (the paper's job counts words over
	// a 5 GB corpus; default engines scale down).
	TotalBytes int64
	// Vocabulary is the distinct word count.
	Vocabulary int
	// ZipfS shapes word frequency.
	ZipfS float64
	// WordsPerLine controls record length.
	WordsPerLine int
	// Seed drives generation.
	Seed uint64
}

// DefaultCorpusConfig returns a corpus sized for fast tests.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		TotalBytes:   8 << 20,
		Vocabulary:   20000,
		ZipfS:        1.0,
		WordsPerLine: 12,
		Seed:         1,
	}
}

// Validate reports nonsensical configurations.
func (c CorpusConfig) Validate() error {
	switch {
	case c.TotalBytes <= 0:
		return fmt.Errorf("mapreduce: corpus bytes must be positive")
	case c.Vocabulary <= 0:
		return fmt.Errorf("mapreduce: vocabulary must be positive")
	case c.ZipfS <= 0:
		return fmt.Errorf("mapreduce: zipf shape must be positive")
	case c.WordsPerLine <= 0:
		return fmt.Errorf("mapreduce: words per line must be positive")
	}
	return nil
}

// GenerateCorpus writes a synthetic Zipf-worded text file into the DFS.
func GenerateCorpus(d *DFS, name string, cfg CorpusConfig) error {
	w, err := newCorpusWriter(cfg)
	if err != nil {
		return err
	}
	data, _ := w.appendLines(make([]byte, 0, int(cfg.TotalBytes)+256), int(cfg.TotalBytes))
	return d.Create(name, data)
}

// corpusWriter draws the Zipf-ranked words of a corpus from one seeded
// stream, so every file it writes continues the same word sequence.
type corpusWriter struct {
	z            *stats.Zipf
	r            *stats.RNG
	wordsPerLine int
}

// newCorpusWriter validates cfg and seeds a writer from it.
func newCorpusWriter(cfg CorpusConfig) (*corpusWriter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	z, err := stats.NewZipf(cfg.Vocabulary, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	return &corpusWriter{z: z, r: stats.NewRNG(cfg.Seed), wordsPerLine: cfg.WordsPerLine}, nil
}

// appendLines appends whole lines of space-separated words to b until
// it holds at least n bytes, and returns it with the number of lines
// appended.
func (w *corpusWriter) appendLines(b []byte, n int) ([]byte, int64) {
	lines := int64(0)
	for len(b) < n {
		for i := 0; i < w.wordsPerLine; i++ {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendWord(b, w.z.Rank(w.r))
		}
		b = append(b, '\n')
		lines++
	}
	return b, lines
}

// appendWord appends rank i as a deterministic pseudo-word ("w" +
// base26) to b.
func appendWord(b []byte, i int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	if i == 0 {
		return append(b, "wa"...)
	}
	var buf [16]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = letters[i%26]
		i /= 26
	}
	return append(append(b, 'w'), buf[n:]...)
}

// WordCountJob builds the paper's mapred-wc job over the given input.
func WordCountJob(input, output string) Job {
	return Job{
		Name:        "mapred-wc",
		Input:       input,
		Output:      output,
		Mapper:      WordCountMapper{},
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		ReduceTasks: 16,
	}
}

// RunWrite executes the paper's mapred-wr job: tasks generate random
// words and populate the file system. Each task writes one chunk-sized
// file; the returned stats mirror JobResult's map tasks. cfg is
// validated as GenerateCorpus validates it.
func RunWrite(d *DFS, prefix string, tasks int, bytesPerTask int, cfg CorpusConfig) ([]TaskStats, error) {
	if tasks <= 0 || bytesPerTask <= 0 {
		return nil, fmt.Errorf("mapreduce: write job needs positive tasks and sizes")
	}
	w, err := newCorpusWriter(cfg)
	if err != nil {
		return nil, err
	}
	var out []TaskStats
	// Create copies what it stores, so one buffer serves every task.
	buf := make([]byte, 0, bytesPerTask+64)
	for t := 0; t < tasks; t++ {
		data, records := w.appendLines(buf[:0], bytesPerTask)
		name := fmt.Sprintf("%s-%05d", prefix, t)
		if err := d.Create(name, data); err != nil {
			return nil, err
		}
		out = append(out, TaskStats{
			Kind:        "write",
			Records:     records,
			OutputBytes: int64(len(data)) * int64(d.Config().Replication),
			Node:        -1,
		})
	}
	return out, nil
}
