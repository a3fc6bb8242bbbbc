package core

import (
	"hash/fnv"
	"sort"
	"sync"
)

// nodeTable shards the base's node state (adapted and degraded maps) by a
// consistent hash of the node address, so adapt, renewal and reconcile
// traffic for different nodes proceeds under different locks. Lock order:
// a shard's mu may be held while taking b.mu or the scheduler's lock, never
// the other way around; no path holds two shard locks at once.
type nodeTable struct {
	shards []nodeShard
}

type nodeShard struct {
	mu       sync.Mutex
	adapted  map[string]*adaptedNode // by node addr
	degraded map[string]string       // node addr -> node id
}

func newNodeTable(n int) *nodeTable {
	if n <= 0 {
		n = 8
	}
	t := &nodeTable{shards: make([]nodeShard, n)}
	for i := range t.shards {
		t.shards[i].adapted = make(map[string]*adaptedNode)
		t.shards[i].degraded = make(map[string]string)
	}
	return t
}

func (t *nodeTable) shard(addr string) *nodeShard {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return &t.shards[h.Sum32()%uint32(len(t.shards))]
}

// counts sums the adapted and degraded populations across shards.
func (t *nodeTable) counts() (adapted, degraded int) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		adapted += len(s.adapted)
		degraded += len(s.degraded)
		s.mu.Unlock()
	}
	return adapted, degraded
}

// adaptedAddrs lists adapted node addresses, sorted.
func (t *nodeTable) adaptedAddrs() []string {
	var out []string
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for addr := range s.adapted {
			out = append(out, addr)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// degradedAddrs lists degraded node addresses, sorted.
func (t *nodeTable) degradedAddrs() []string {
	var out []string
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for addr := range s.degraded {
			out = append(out, addr)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// clear empties every shard and returns how many nodes were adapted and
// degraded.
func (t *nodeTable) clear() (adapted, degraded int) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		adapted += len(s.adapted)
		degraded += len(s.degraded)
		s.adapted = make(map[string]*adaptedNode)
		s.degraded = make(map[string]string)
		s.mu.Unlock()
	}
	return adapted, degraded
}

// perShardTargets groups adapted+degraded addresses by shard, each group
// sorted — the unit of parallelism for reconcile rounds.
func (t *nodeTable) perShardTargets() [][]string {
	out := make([][]string, len(t.shards))
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		group := make([]string, 0, len(s.adapted)+len(s.degraded))
		for addr := range s.adapted {
			group = append(group, addr)
		}
		for addr := range s.degraded {
			group = append(group, addr)
		}
		s.mu.Unlock()
		sort.Strings(group)
		out[i] = group
	}
	return out
}
