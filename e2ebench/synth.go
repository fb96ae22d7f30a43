package main

import (
	"encoding/json"
	"fmt"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

// The synthetic view of alloc-1024: 16 topology shards of 64 nodes.
const (
	synthShards    = 16
	synthShardSize = 64
	// crossSamples is how many measured pairs join each pair of shards.
	crossSamples = 4
)

// synthView is a synthetic monitoring view of a sharded cluster: a full
// latency/bandwidth mesh inside each shard plus a few sampled pairs
// between every two shards, the shape the sharded cost model and the
// policy simulator's topology assume. The monitor itself has no sparse
// probe schedule, so this traffic is synthetic; it is written in the
// monitor's own record format so the broker reads it unchanged.
type synthView struct {
	r      *rng.Rand
	groups [][]int
	attrs  []metrics.NodeAttrs
	lat    []metrics.PairLatency
	bw     []metrics.PairBandwidth
	next   int // next node to republish
}

// livehostsRecord mirrors the monitor's livehosts record encoding.
type livehostsRecord struct {
	Replica int       `json:"replica"`
	At      time.Time `json:"at"`
	Hosts   []int     `json:"hosts"`
}

func synthHostname(id int) string { return fmt.Sprintf("syn%04d", id) }

func newSynthView(nShards, shardSize int, seed uint64) *synthView {
	r := rng.New(seed)
	n := nShards * shardSize
	v := &synthView{r: r, groups: make([][]int, nShards), attrs: make([]metrics.NodeAttrs, n)}
	for i := 0; i < n; i++ {
		v.groups[i/shardSize] = append(v.groups[i/shardSize], i)
		load := r.Range(0, 8)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: synthHostname(i),
			Cores: 12, FreqGHz: 4.6, TotalMemMB: 16384,
		}
		na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
		na.CPUUtilPct = stats.Windowed{M1: load * 8, M5: load * 8, M15: load * 8}
		na.FlowRateBps = stats.Windowed{M1: r.Range(1e5, 1e8), M5: 1e6, M15: 1e6}
		na.AvailMemMB = stats.Windowed{M1: r.Range(2000, 15000), M5: 12000, M15: 12000}
		v.attrs[i] = na
	}
	measure := func(i, j int, latUS, spreadUS int, availLo, availHi float64) {
		key := metrics.Pair(i, j)
		l := time.Duration(latUS+r.Intn(spreadUS)) * time.Microsecond
		v.lat = append(v.lat, metrics.PairLatency{U: key.U, V: key.V, Last: l, Mean1: l, Mean5: l})
		v.bw = append(v.bw, metrics.PairBandwidth{U: key.U, V: key.V, AvailBps: r.Range(availLo, availHi), PeakBps: 125e6})
	}
	for _, members := range v.groups {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				measure(members[a], members[b], 50, 100, 80e6, 120e6)
			}
		}
	}
	for sa := 0; sa < nShards; sa++ {
		for sb := sa + 1; sb < nShards; sb++ {
			for k := 0; k < crossSamples; k++ {
				measure(v.groups[sa][k%shardSize], v.groups[sb][(k*7)%shardSize], 300, 600, 10e6, 60e6)
			}
		}
	}
	return v
}

func (v *synthView) size() int { return len(v.attrs) }

func (v *synthView) hostnames() map[int]string {
	out := make(map[int]string, len(v.attrs))
	for i := range v.attrs {
		out[i] = synthHostname(i)
	}
	return out
}

func putJSON(st store.Store, key string, val any) error {
	b, err := json.Marshal(val)
	if err != nil {
		return fmt.Errorf("encode %s: %w", key, err)
	}
	if err := st.Put(key, b); err != nil {
		return fmt.Errorf("put %s: %w", key, err)
	}
	return nil
}

func (v *synthView) publishLivehosts(st store.Store, now time.Time) error {
	rec := livehostsRecord{At: now, Hosts: make([]int, len(v.attrs))}
	for i := range rec.Hosts {
		rec.Hosts[i] = i
	}
	return putJSON(st, monitor.KeyLivehostsPrefix+"0", rec)
}

// publishNode moves node id's load one step of a bounded random walk and
// republishes its record stamped now, the way NodeStateD does each tick.
func (v *synthView) publishNode(st store.Store, id int, now time.Time) error {
	na := &v.attrs[id]
	load := na.CPULoad.M1 + v.r.NormMS(0, 0.25)
	if load < 0 {
		load = 0
	}
	if load > 10 {
		load = 10
	}
	na.CPULoad = stats.Windowed{M1: load, M5: 0.8*na.CPULoad.M5 + 0.2*load, M15: 0.95*na.CPULoad.M15 + 0.05*load}
	na.CPUUtilPct = stats.Windowed{M1: load * 8, M5: na.CPULoad.M5 * 8, M15: na.CPULoad.M15 * 8}
	na.Timestamp = now
	return putJSON(st, fmt.Sprintf("%s%d", monitor.KeyNodeStatePrefix, id), na)
}

func (v *synthView) publishLatency(st store.Store, now time.Time) error {
	for i := range v.lat {
		v.lat[i].Timestamp = now
	}
	return putJSON(st, monitor.KeyLatencyMatrix, v.lat)
}

func (v *synthView) publishBandwidth(st store.Store, now time.Time) error {
	for i := range v.bw {
		v.bw[i].Timestamp = now
	}
	return putJSON(st, monitor.KeyBandwidthMatrix, v.bw)
}

// publishAll writes the whole view once.
func (v *synthView) publishAll(st store.Store, now time.Time) error {
	if err := v.publishLivehosts(st, now); err != nil {
		return err
	}
	for id := range v.attrs {
		if err := v.publishNode(st, id, now); err != nil {
			return err
		}
	}
	if err := v.publishLatency(st, now); err != nil {
		return err
	}
	return v.publishBandwidth(st, now)
}

// attach republishes the view on sched at the monitor's cadence: every
// node once per NodeStatePeriod (spread evenly, one node at a time), the
// livehosts list every LivehostsPeriod, and the matrices every
// LatencyPeriod and BandwidthPeriod. Publish errors cannot occur on the
// in-memory store; they are dropped like the daemons drop theirs.
func (v *synthView) attach(sched *simtime.Scheduler, st store.Store, cfg monitor.Config) []simtime.CancelFunc {
	nodeGap := cfg.NodeStatePeriod / time.Duration(len(v.attrs))
	return []simtime.CancelFunc{
		sched.Every(nodeGap, "synth.nodestate", func(now time.Time) {
			_ = v.publishNode(st, v.next, now)
			v.next = (v.next + 1) % len(v.attrs)
		}),
		sched.Every(cfg.LivehostsPeriod, "synth.livehosts", func(now time.Time) { _ = v.publishLivehosts(st, now) }),
		sched.Every(cfg.LatencyPeriod, "synth.latency", func(now time.Time) { _ = v.publishLatency(st, now) }),
		sched.Every(cfg.BandwidthPeriod, "synth.bandwidth", func(now time.Time) { _ = v.publishBandwidth(st, now) }),
	}
}
