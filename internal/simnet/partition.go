package simnet

import (
	"fmt"
	"sort"
	"time"
)

// This file is the shard planner: a pure, deterministic function from an
// abstract topology description to a partition of its nodes into shards.
// Builders describe their world as keys before instantiating any simnet
// state, plan the partition, then create each node on the shard the plan
// assigned it. The window width follows from the links the builder then
// crosses (Sharded.Lookahead).

// cutFloor is the link-delay floor below which two nodes are never
// separated: links faster than this (LAN segments, radio cells) would
// force an uselessly small lookahead window, so they are contracted and
// their endpoints co-located. 1ms keeps WAN/backbone links (the paper's
// wired network component) as the only candidate cut edges.
const cutFloor = time.Millisecond

// TopoNode describes one would-be node (or node cluster) to the planner.
type TopoNode struct {
	// Key names the node uniquely within the plan.
	Key string
	// Weight is the node's relative execution cost (event rate, station
	// count); the packer balances total weight across shards. Zero counts
	// as one.
	Weight int
}

// TopoLink describes one would-be link between two keys. Delay is the
// one-way propagation delay the link will be built with; links with
// Delay below the cut floor are never cut.
type TopoLink struct {
	A, B  string
	Delay time.Duration
}

// PartitionPlan is the planner's output: a shard assignment for every key.
type PartitionPlan struct {
	// NumShards is the number of shards actually used (<= maxShards).
	NumShards int
	// Assign maps every node key to its shard index in [0, NumShards).
	Assign map[string]int
}

// ShardFor returns the shard index for key (0 if unknown).
func (p PartitionPlan) ShardFor(key string) int { return p.Assign[key] }

// PlanPartition partitions the described topology into at most maxShards
// shards. Links with Delay below cutFloor are contracted — their endpoints
// always share a shard — and the resulting components are packed onto
// shards by greatest weight first onto the least-loaded shard.
// Everything is deterministic in the input order: same description, same
// plan.
//
// It returns an error when a key is duplicated, a link references an
// unknown key, or maxShards < 1.
func PlanPartition(nodes []TopoNode, links []TopoLink, maxShards int) (PartitionPlan, error) {
	if maxShards < 1 {
		return PartitionPlan{}, fmt.Errorf("simnet: maxShards %d < 1", maxShards)
	}
	index := make(map[string]int, len(nodes))
	for i, nd := range nodes {
		if _, dup := index[nd.Key]; dup {
			return PartitionPlan{}, fmt.Errorf("simnet: duplicate topology key %q", nd.Key)
		}
		index[nd.Key] = i
	}

	// Union-find over node indices.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Root at the smaller index so component identity is
			// input-order deterministic.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// Contract fast links.
	for _, l := range links {
		ia, oka := index[l.A]
		ib, okb := index[l.B]
		if !oka || !okb {
			return PartitionPlan{}, fmt.Errorf("simnet: link %s--%s references unknown key", l.A, l.B)
		}
		if l.Delay < cutFloor {
			union(ia, ib)
		}
	}

	// Collect components in root order (deterministic).
	type comp struct {
		root   int
		weight int
	}
	byRoot := make(map[int]*comp)
	var comps []*comp
	for i, nd := range nodes {
		r := find(i)
		c, ok := byRoot[r]
		if !ok {
			c = &comp{root: r}
			byRoot[r] = c
			comps = append(comps, c)
		}
		w := nd.Weight
		if w <= 0 {
			w = 1
		}
		c.weight += w
	}

	// Pack: heaviest component first onto the least-loaded shard, ties to
	// the lowest shard index. Stable order for equal weights: root index.
	order := make([]*comp, len(comps))
	copy(order, comps)
	sort.SliceStable(order, func(i, j int) bool { return order[i].weight > order[j].weight })
	numShards := len(comps)
	if numShards > maxShards {
		numShards = maxShards
	}
	load := make([]int, numShards)
	shardOfRoot := make(map[int]int, len(comps))
	for _, c := range order {
		best := 0
		for k := 1; k < numShards; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		shardOfRoot[c.root] = best
		load[best] += c.weight
	}

	// Renumber shards by first appearance in node input order, so shard 0
	// always holds the first-described node and the numbering is
	// independent of packing internals.
	renum := make(map[int]int, numShards)
	plan := PartitionPlan{Assign: make(map[string]int, len(nodes))}
	for i, nd := range nodes {
		k := shardOfRoot[find(i)]
		nk, ok := renum[k]
		if !ok {
			nk = len(renum)
			renum[k] = nk
		}
		plan.Assign[nd.Key] = nk
	}
	plan.NumShards = len(renum)
	return plan, nil
}
