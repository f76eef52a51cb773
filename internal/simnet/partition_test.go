package simnet

import (
	"reflect"
	"testing"
	"time"
)

func TestPlanPartitionContractsFastLinks(t *testing.T) {
	// Two gateway clusters joined by a WAN backbone: the LAN links are
	// below the cut floor and must never be cut; the backbone is the only
	// candidate cut edge.
	nodes := []TopoNode{
		{Key: "gw0", Weight: 10},
		{Key: "cell0", Weight: 100},
		{Key: "gw1", Weight: 10},
		{Key: "cell1", Weight: 100},
	}
	links := []TopoLink{
		{A: "gw0", B: "cell0", Delay: 200 * time.Microsecond},
		{A: "gw1", B: "cell1", Delay: 200 * time.Microsecond},
		{A: "gw0", B: "gw1", Delay: 10 * time.Millisecond},
	}
	plan, err := PlanPartition(nodes, links, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards != 2 {
		t.Fatalf("NumShards = %d, want 2 (assign %v)", plan.NumShards, plan.Assign)
	}
	if plan.Assign["gw0"] != plan.Assign["cell0"] || plan.Assign["gw1"] != plan.Assign["cell1"] {
		t.Fatalf("LAN-joined nodes split across shards: %v", plan.Assign)
	}
	if plan.Assign["gw0"] == plan.Assign["gw1"] {
		t.Fatalf("backbone endpoints share a shard: %v", plan.Assign)
	}
	if plan.Assign["gw0"] != 0 {
		t.Fatalf("first-described node not in shard 0: %v", plan.Assign)
	}
}

func TestPlanPartitionDeterministic(t *testing.T) {
	nodes := []TopoNode{
		{Key: "a", Weight: 3}, {Key: "b", Weight: 5},
		{Key: "c", Weight: 2}, {Key: "d", Weight: 5},
		{Key: "e", Weight: 1},
	}
	links := []TopoLink{
		{A: "a", B: "b", Delay: 5 * time.Millisecond},
		{A: "b", B: "c", Delay: 7 * time.Millisecond},
		{A: "c", B: "d", Delay: 9 * time.Millisecond},
		{A: "d", B: "e", Delay: 11 * time.Millisecond},
	}
	p1, err := PlanPartition(nodes, links, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanPartition(nodes, links, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("plans differ:\n%v\n%v", p1, p2)
	}
	if p1.NumShards != 3 {
		t.Fatalf("NumShards = %d, want 3", p1.NumShards)
	}
}

func TestPlanPartitionErrors(t *testing.T) {
	nodes := []TopoNode{{Key: "a"}}
	if _, err := PlanPartition(nodes, []TopoLink{{A: "a", B: "ghost", Delay: time.Second}}, 2); err == nil {
		t.Fatal("unknown link key not rejected")
	}
	if _, err := PlanPartition(nodes, nil, 0); err == nil {
		t.Fatal("maxShards 0 not rejected")
	}
	if _, err := PlanPartition([]TopoNode{{Key: "a"}, {Key: "a"}}, nil, 2); err == nil {
		t.Fatal("duplicate key not rejected")
	}
}

func TestPlanPartitionBalancesWeight(t *testing.T) {
	// Four equal-weight isolated components onto two shards: 2 + 2.
	nodes := []TopoNode{
		{Key: "a", Weight: 4}, {Key: "b", Weight: 4},
		{Key: "c", Weight: 4}, {Key: "d", Weight: 4},
	}
	plan, err := PlanPartition(nodes, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, plan.NumShards)
	for _, k := range plan.Assign {
		counts[k]++
	}
	if plan.NumShards != 2 || counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("unbalanced packing: shards=%d counts=%v", plan.NumShards, counts)
	}
}
