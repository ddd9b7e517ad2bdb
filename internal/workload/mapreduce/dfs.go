// Package mapreduce implements the web-as-a-platform benchmark of the
// suite (Table 1): a working MapReduce runtime over an in-memory
// replicated distributed file system, standing in for the paper's
// Hadoop v0.14 cluster. Two jobs mirror the paper's: word count over a
// generated corpus (mapred-wc) and distributed file write (mapred-wr).
package mapreduce

import (
	"fmt"
	"sort"

	"warehousesim/internal/stats"
)

// DefaultChunkBytes is the DFS chunk size (Hadoop-era 4 MB per the
// paper's task sizing: 5 GB input -> 1280 tasks).
const DefaultChunkBytes = 4 << 20

// DFSConfig sizes the distributed file system.
type DFSConfig struct {
	// Nodes is the number of datanodes.
	Nodes int
	// Replication is the number of replicas per chunk.
	Replication int
	// ChunkBytes is the chunk size.
	ChunkBytes int
}

// DefaultDFSConfig returns a small Hadoop-like layout.
func DefaultDFSConfig() DFSConfig {
	return DFSConfig{Nodes: 8, Replication: 3, ChunkBytes: DefaultChunkBytes}
}

// Validate reports nonsensical configurations.
func (c DFSConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("mapreduce: dfs needs nodes > 0")
	case c.Replication <= 0 || c.Replication > c.Nodes:
		return fmt.Errorf("mapreduce: replication %d invalid for %d nodes", c.Replication, c.Nodes)
	case c.ChunkBytes <= 0:
		return fmt.Errorf("mapreduce: chunk bytes must be positive")
	}
	return nil
}

// chunk is one stored block with its replica placement.
type chunk struct {
	data     []byte
	replicas []int // datanode ids
}

// DFS is an in-memory replicated chunk store with a flat namespace.
type DFS struct {
	cfg    DFSConfig
	files  map[string][]int // name -> chunk ids
	chunks []chunk
	rng    *stats.RNG
	// usage[node] is bytes stored per datanode (replicas counted).
	usage []int64
}

// NewDFS creates an empty file system.
func NewDFS(cfg DFSConfig, seed uint64) (*DFS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DFS{
		cfg:   cfg,
		files: map[string][]int{},
		rng:   stats.NewRNG(seed),
		usage: make([]int64, cfg.Nodes),
	}, nil
}

// Config returns the DFS configuration.
func (d *DFS) Config() DFSConfig { return d.cfg }

// Create writes data as a new file, chunking and replicating it.
// It fails if the file exists.
func (d *DFS) Create(name string, data []byte) error {
	if _, ok := d.files[name]; ok {
		return fmt.Errorf("mapreduce: file %q exists", name)
	}
	var ids []int
	for off := 0; off < len(data) || (off == 0 && len(data) == 0); off += d.cfg.ChunkBytes {
		end := off + d.cfg.ChunkBytes
		if end > len(data) {
			end = len(data)
		}
		ids = append(ids, d.storeChunk(data[off:end]))
		if len(data) == 0 {
			break
		}
	}
	d.files[name] = ids
	return nil
}

// storeChunk copies the payload and places replicas on the least-loaded
// distinct datanodes (a simplification of HDFS's rack-aware placement).
func (d *DFS) storeChunk(payload []byte) int {
	data := make([]byte, len(payload))
	copy(data, payload)

	type load struct {
		node  int
		bytes int64
	}
	loads := make([]load, d.cfg.Nodes)
	for n := range loads {
		loads[n] = load{node: n, bytes: d.usage[n]}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].bytes != loads[j].bytes {
			return loads[i].bytes < loads[j].bytes
		}
		return loads[i].node < loads[j].node
	})
	replicas := make([]int, d.cfg.Replication)
	for i := 0; i < d.cfg.Replication; i++ {
		replicas[i] = loads[i].node
		d.usage[loads[i].node] += int64(len(data))
	}
	d.chunks = append(d.chunks, chunk{data: data, replicas: replicas})
	return len(d.chunks) - 1
}

// Exists reports whether a file is present.
func (d *DFS) Exists(name string) bool {
	_, ok := d.files[name]
	return ok
}

// FileChunks returns the chunk count of a file.
func (d *DFS) FileChunks(name string) (int, error) {
	ids, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("mapreduce: file %q not found", name)
	}
	return len(ids), nil
}

// ReadChunk returns the payload of the i-th chunk of a file, plus the
// datanode it was served from.
func (d *DFS) ReadChunk(name string, i int) ([]byte, int, error) {
	ids, ok := d.files[name]
	if !ok {
		return nil, 0, fmt.Errorf("mapreduce: file %q not found", name)
	}
	if i < 0 || i >= len(ids) {
		return nil, 0, fmt.Errorf("mapreduce: chunk %d out of range for %q", i, name)
	}
	c := d.chunks[ids[i]]
	node := c.replicas[d.rng.Intn(len(c.replicas))]
	return c.data, node, nil
}

// ReadAll concatenates a file's chunks.
func (d *DFS) ReadAll(name string) ([]byte, error) {
	ids, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("mapreduce: file %q not found", name)
	}
	var out []byte
	for _, id := range ids {
		out = append(out, d.chunks[id].data...)
	}
	return out, nil
}

// TotalStoredBytes returns physical bytes across all datanodes
// (replicas counted).
func (d *DFS) TotalStoredBytes() int64 {
	var total int64
	for _, u := range d.usage {
		total += u
	}
	return total
}
