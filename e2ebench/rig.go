package main

import (
	"fmt"
	"sync"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/monitor"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

// epoch is the virtual start time of every stack the benchmark builds.
var epoch = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// monitorWarmUp lets the monitor publish every matrix and fill the
// 15-minute running means before anything is measured (the harness's
// DefaultWarmUp).
const monitorWarmUp = 17 * time.Minute

// worldSeed fixes the simulated cluster's own activity. The benchmark
// seed drives the traffic offered to the system, not the cluster it runs
// on, so seeds compare like with like.
const worldSeed = 42

// synthSeed fixes the synthetic 1024-node view for the same reason.
const synthSeed = 0x5eed

// timedStore is the store the monitor and the broker are handed in a
// traced run: the versioned store with every call timed. It keeps the
// generation methods of the wrapped store, so the broker still serves
// snapshots from its delta cache.
type timedStore struct {
	*store.VersionedStore
	tr *tracer
}

func (s *timedStore) Put(key string, value []byte) error {
	h := s.tr.begin("store.put", 0, s.tr.parent())
	err := s.VersionedStore.Put(key, value)
	if s.tr.end(h) > 0 {
		s.tr.count("store.bytes_put", float64(len(value)))
	}
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	h := s.tr.begin("store.get", 0, s.tr.parent())
	v, err := s.VersionedStore.Get(key)
	s.tr.end(h)
	return v, err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	h := s.tr.begin("store.list", 0, s.tr.parent())
	v, err := s.VersionedStore.List(prefix)
	s.tr.end(h)
	return v, err
}

// frontStore returns the store handed to the program's layers: the
// versioned store itself, or its timed wrapper when tracing.
func frontStore(vst *store.VersionedStore, tr *tracer) store.Store {
	if tr == nil {
		return vst
	}
	return &timedStore{VersionedStore: vst, tr: tr}
}

// stack is one assembled deployment: a virtual clock, a versioned store
// with monitoring data, and a broker reading it. close stops everything
// the stack scheduled.
type stack struct {
	sched  *simtime.Scheduler
	vst    *store.VersionedStore
	broker *broker.Broker
	bcfg   broker.Config
	world  *world.World       // nil for the synthetic view
	mgr    *monitor.Manager   // nil for the synthetic view
	hosts  map[int]string     // live node ID → hostname, for grant checks
	shard  alloc.ShardOptions // the broker's sharding options
	stops  []simtime.CancelFunc
}

func (s *stack) close() {
	for _, stop := range s.stops {
		stop()
	}
	if s.mgr != nil {
		s.mgr.Stop()
	}
}

// attachWorld registers the world's step on the scheduler. Untraced it
// is World.Attach; traced, the benchmark's own Every with the same
// period and name times every StepTo.
func attachWorld(w *world.World, sched *simtime.Scheduler, tr *tracer) simtime.CancelFunc {
	if tr == nil {
		return w.Attach(sched)
	}
	return sched.Every(w.StepSize(), "world.step", func(now time.Time) {
		h := tr.begin("world.step", 0, tr.parent())
		w.StepTo(now)
		tr.end(h)
	})
}

// newIITKStack builds the paper's 60-node cluster with its world and
// every monitor daemon at the paper's cadence, warms the monitor up, and
// puts a broker on the store.
func newIITKStack(brokerSeed uint64, tr *tracer) (*stack, error) {
	cl, err := cluster.BuildIITK()
	if err != nil {
		return nil, err
	}
	sched := simtime.NewScheduler(epoch)
	w := world.New(cl, world.Config{Seed: worldSeed}, epoch)
	stopWorld := attachWorld(w, sched, tr)
	vst := store.Version(store.NewMem())
	st := frontStore(vst, tr)
	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, st, monitor.Config{})
	if err := mgr.Start(sched); err != nil {
		stopWorld()
		return nil, fmt.Errorf("start monitor: %w", err)
	}
	sched.RunFor(monitorWarmUp)
	names := make(map[int]string, cl.Size())
	for _, n := range cl.Nodes {
		names[n.ID] = n.Hostname
	}
	hosts, err := liveHosts(vst, names)
	if err != nil {
		mgr.Stop()
		stopWorld()
		return nil, err
	}
	bcfg := broker.Config{Seed: brokerSeed, DecisionLog: decisionLog}
	return &stack{
		sched:  sched,
		vst:    vst,
		broker: broker.New(st, sched, bcfg),
		bcfg:   bcfg,
		world:  w,
		mgr:    mgr,
		hosts:  hosts,
		stops:  []simtime.CancelFunc{stopWorld},
	}, nil
}

// newSynthStack builds the 1024-node synthetic monitoring view, publishes
// it in full and keeps republishing it at the monitor's cadence, with a
// sharded broker on the store.
func newSynthStack(brokerSeed uint64, tr *tracer) (*stack, error) {
	sched := simtime.NewScheduler(epoch)
	vst := store.Version(store.NewMem())
	st := frontStore(vst, tr)
	v := newSynthView(synthShards, synthShardSize, synthSeed)
	if err := v.publishAll(st, sched.Now()); err != nil {
		return nil, err
	}
	hosts, err := liveHosts(vst, v.hostnames())
	if err != nil {
		return nil, err
	}
	stops := v.attach(sched, st, monitor.DefaultConfig())
	shard := alloc.ShardOptions{Plan: alloc.NewShardPlan(v.groups, "e2ebench"), Threshold: alloc.DefaultShardThreshold}
	bcfg := broker.Config{Seed: brokerSeed, DecisionLog: decisionLog, Shard: shard}
	return &stack{
		sched:  sched,
		vst:    vst,
		broker: broker.New(st, sched, bcfg),
		bcfg:   bcfg,
		hosts:  hosts,
		shard:  shard,
		stops:  stops,
	}, nil
}

// liveHosts returns the hostnames of the nodes in the published
// livehosts record: the hosts every granted allocation must come from.
func liveHosts(st store.Store, names map[int]string) (map[int]string, error) {
	ids, _, err := monitor.ReadLivehosts(st)
	if err != nil {
		return nil, fmt.Errorf("read livehosts: %w", err)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no live hosts published")
	}
	out := make(map[int]string, len(ids))
	for _, id := range ids {
		name, ok := names[id]
		if !ok {
			return nil, fmt.Errorf("live host %d is not a cluster node", id)
		}
		out[id] = name
	}
	return out, nil
}

// decisionLog is the broker's decision ring size: large enough that the
// benchmark's poller never loses records between two polls.
const decisionLog = 8192

// realClock advances a stack's virtual clock at one virtual second per
// wall second on its own goroutine, so monitor publishes reach the store
// at the monitor's own cadence while requests are served.
type realClock struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// clockTick is how often the clock goroutine catches virtual time up
// with the wall clock.
const clockTick = 5 * time.Millisecond

func startRealClock(sched *simtime.Scheduler) *realClock {
	c := &realClock{stop: make(chan struct{})}
	base := sched.Now()
	wall := time.Now()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(clockTick)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				sched.RunUntil(base.Add(time.Since(wall)))
			}
		}
	}()
	return c
}

func (c *realClock) close() {
	close(c.stop)
	c.wg.Wait()
}
