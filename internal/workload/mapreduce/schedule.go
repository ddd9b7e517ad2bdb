package mapreduce

import (
	"fmt"
	"sort"
)

// Locality-aware map scheduling, Hadoop-style: each datanode doubles as
// a worker, and the scheduler places each map task on a node holding a
// replica of its input chunk when load balance allows, falling back to
// remote reads otherwise. The locality rate drives how much shuffle-in
// traffic crosses the network — one of the ensemble effects §4 points
// at for the networking substrate.

// Assignment places one map task.
type Assignment struct {
	Chunk int
	Node  int
	// Local reports whether the node holds a replica of the chunk.
	Local bool
}

// ScheduleStats summarizes a schedule.
type ScheduleStats struct {
	Tasks int
	// Local is the number of data-local assignments.
	Local int
	// MaxLoad and MinLoad are the heaviest/lightest per-node task counts.
	MaxLoad, MinLoad int
}

// LocalityRate returns the fraction of data-local tasks.
func (s ScheduleStats) LocalityRate() float64 {
	if s.Tasks == 0 {
		return 0
	}
	return float64(s.Local) / float64(s.Tasks)
}

// ScheduleMapTasksExcluding schedules around unavailable datanodes
// (failed or drained): their replicas cannot serve reads and they take
// no tasks. This is where replication earns its keep — with one
// replica, every chunk on a down node becomes a remote read.
func ScheduleMapTasksExcluding(d *DFS, input string, down map[int]bool) ([]Assignment, ScheduleStats, error) {
	ids, ok := d.files[input]
	if !ok {
		return nil, ScheduleStats{}, fmt.Errorf("mapreduce: file %q not found", input)
	}
	nodes := d.cfg.Nodes
	up := nodes - len(down)
	if up <= 0 {
		return nil, ScheduleStats{}, fmt.Errorf("mapreduce: no datanodes available")
	}
	load := make([]int, nodes)
	cap := (len(ids)+up-1)/up + 1

	assignments := make([]Assignment, 0, len(ids))
	// Schedule the most replication-constrained chunks first so their
	// replica holders are not filled by flexible chunks.
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(d.chunks[ids[order[a]]].replicas) < len(d.chunks[ids[order[b]]].replicas)
	})

	for _, ci := range order {
		replicas := d.chunks[ids[ci]].replicas
		// Least-loaded live replica holder under the cap.
		bestNode, bestLoad := -1, cap
		for _, n := range replicas {
			if !down[n] && load[n] < bestLoad {
				bestNode, bestLoad = n, load[n]
			}
		}
		local := bestNode >= 0
		if !local {
			// Fall back to the least-loaded live node (remote read).
			bestNode, bestLoad = -1, int(^uint(0)>>1)
			for n := 0; n < nodes; n++ {
				if !down[n] && load[n] < bestLoad {
					bestNode, bestLoad = n, load[n]
				}
			}
		}
		load[bestNode]++
		assignments = append(assignments, Assignment{Chunk: ci, Node: bestNode, Local: local})
	}
	// Restore chunk order for callers that zip with chunk indices.
	sort.SliceStable(assignments, func(a, b int) bool {
		return assignments[a].Chunk < assignments[b].Chunk
	})

	st := ScheduleStats{Tasks: len(assignments)}
	for _, a := range assignments {
		if a.Local {
			st.Local++
		}
	}
	first := true
	for n, l := range load {
		if down[n] {
			continue
		}
		if first {
			st.MaxLoad, st.MinLoad = l, l
			first = false
			continue
		}
		if l > st.MaxLoad {
			st.MaxLoad = l
		}
		if l < st.MinLoad {
			st.MinLoad = l
		}
	}
	return assignments, st, nil
}
