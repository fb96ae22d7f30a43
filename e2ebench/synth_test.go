package main

import (
	"testing"

	"nlarm/internal/alloc"
	"nlarm/internal/monitor"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

func TestSynthViewDecodesAsMonitorSnapshot(t *testing.T) {
	const shards, size = 3, 4
	v := newSynthView(shards, size, 5)
	st := store.NewMem()
	if err := v.publishAll(st, epoch); err != nil {
		t.Fatal(err)
	}
	snap, err := monitor.ReadSnapshot(st, epoch)
	if err != nil {
		t.Fatal(err)
	}
	n := shards * size
	if len(snap.Livehosts) != n || len(snap.Nodes) != n {
		t.Fatalf("%d livehosts, %d nodes, want %d", len(snap.Livehosts), len(snap.Nodes), n)
	}
	pairs := shards*size*(size-1)/2 + shards*(shards-1)/2*crossSamples
	if len(snap.Latency) != pairs || len(snap.Bandwidth) != pairs {
		t.Fatalf("%d latency / %d bandwidth pairs, want %d", len(snap.Latency), len(snap.Bandwidth), pairs)
	}
	if snap.Degraded {
		t.Fatalf("snapshot degraded: %v", snap.DegradedReasons)
	}
	if got := snap.Nodes[7].Hostname; got != synthHostname(7) {
		t.Fatalf("node 7 hostname %q", got)
	}
	if _, ok := snap.LatencyOf(0, 1); !ok {
		t.Fatal("intra-shard pair unmeasured")
	}
	// The sharded model accepts the view.
	req, _ := alloc.Request{Procs: 8, PPN: 4}.Validate()
	m := alloc.NewCostModelSharded(snap, req.Weights, false, alloc.ShardOptions{Plan: alloc.NewShardPlan(v.groups, "test"), Threshold: 1})
	if _, err := (alloc.NetLoadAware{}).AllocateModel(m, req, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSynthViewRepublishesAtMonitorCadence(t *testing.T) {
	v := newSynthView(2, 8, 9)
	vst := store.Version(store.NewMem())
	if err := v.publishAll(vst, epoch); err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(epoch)
	cfg := monitor.DefaultConfig()
	for _, stop := range v.attach(sched, vst, cfg) {
		defer stop()
	}
	seq := vst.Seq()
	sched.RunFor(cfg.NodeStatePeriod)
	// Every node once, plus nothing else inside one node-state period.
	if got := vst.Seq() - seq; got != uint64(v.size()) {
		t.Fatalf("%d puts in one node-state period, want %d", got, v.size())
	}
	snap, err := monitor.ReadSnapshot(vst, sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	for id, na := range snap.Nodes {
		if age := sched.Now().Sub(na.Timestamp); age > cfg.NodeStatePeriod || age < 0 {
			t.Fatalf("node %d record is %v old", id, age)
		}
	}
	sched.RunFor(cfg.LatencyPeriod)
	if _, at, err := monitor.ReadLivehosts(vst); err != nil || sched.Now().Sub(at) > cfg.LivehostsPeriod {
		t.Fatalf("livehosts %v old, err %v", sched.Now().Sub(at), err)
	}
}
