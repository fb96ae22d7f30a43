package main

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/monitor"
	"nlarm/internal/obs"
	"nlarm/internal/rng"
)

// allocSpec is one allocate-over-TCP workload.
type allocSpec struct {
	name  string
	build func(seed uint64, tr *tracer) (*stack, error)
	// scale multiplies the paper's process counts.
	scale int
	// rate is the fixed open-loop arrival rate, requests per second,
	// set well below the closed-loop peak on a 2-vCPU box.
	rate float64
}

var (
	alloc60 = allocSpec{
		name:  "alloc-60",
		build: newIITKStack,
		scale: 1,
		rate:  400,
	}
	alloc1024 = allocSpec{
		name:  "alloc-1024",
		build: newSynthStack,
		scale: 8,
		rate:  8,
	}
)

// allocRig is a stack behind a batching TCP server and a client pool.
type allocRig struct {
	*stack
	srv  *broker.Server
	pool *broker.Pool
	chk  *checker
}

func (r *allocRig) close() {
	r.pool.Close()
	r.srv.Close()
	r.stack.close()
}

// newAllocRig builds the stack, starts the batching server, dials the
// pool and sends warm-up requests so every connection is open and the
// first cost model is built before anything is timed.
func newAllocRig(c *runCtx, spec allocSpec, tr *tracer) (*allocRig, error) {
	st, err := spec.build(c.seed, tr)
	if err != nil {
		return nil, err
	}
	srv, err := broker.NewServerOpts(st.broker, nil, "127.0.0.1:0", broker.ServerOptions{Batching: &broker.BatcherOptions{}})
	if err != nil {
		st.close()
		return nil, err
	}
	rig := &allocRig{
		stack: st,
		srv:   srv,
		pool:  broker.NewPool(srv.Addr(), broker.PoolOptions{Size: c.nproc}),
		chk:   &checker{hosts: st.hosts},
	}
	warm := broker.Request{Procs: 8 * spec.scale, PPN: paperPPN}
	for i := 0; i < 2*c.nproc; i++ {
		if _, err := rig.pool.Allocate(warm); err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up allocate: %w", err)
		}
	}
	return rig, nil
}

// counterDelta reads broker counters and histograms between two
// registry snapshots.
type counterDelta struct{ a, b *obs.Snapshot }

func (d counterDelta) c(name string) float64 {
	return float64(d.b.Counters[name]) - float64(d.a.Counters[name])
}

func (d counterDelta) histMean(name string) float64 {
	n := float64(d.b.Histograms[name].Count) - float64(d.a.Histograms[name].Count)
	if n == 0 {
		return 0
	}
	return (d.b.Histograms[name].Sum - d.a.Histograms[name].Sum) / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reconcile checks the phase tallies against the broker's own counters:
// every reply the generator saw must be one the broker recorded, and
// every recorded decision one the generator saw.
func reconcile(res *result, d counterDelta, decisions float64, phases ...*outcomes) {
	var granted, wait, shed, errs float64
	for _, o := range phases {
		granted += float64(o.granted)
		wait += float64(o.wait)
		shed += float64(o.shed)
		errs += float64(o.errs)
	}
	pairs := []struct {
		what      string
		got, want float64
	}{
		{"broker.allocate.ok vs granted", d.c("broker.allocate.ok"), granted},
		{"broker.allocate.wait vs wait answers", d.c("broker.allocate.wait"), wait},
		{"broker.allocate.errors vs errors", d.c("broker.allocate.errors"), errs},
		{"broker.admit.shed.total vs sheds", d.c("broker.admit.shed.total"), shed},
		{"broker.allocate.total vs replies", d.c("broker.allocate.total"), granted + wait + errs},
		{"DecisionCount delta vs broker.allocate.total", decisions, d.c("broker.allocate.total")},
	}
	for _, p := range pairs {
		if p.got != p.want {
			res.problem("reconcile %s: %v != %v", p.what, p.got, p.want)
		}
	}
}

func tally(c *runCtx, res *result, phase string, o *outcomes) {
	c.printf("%s: attempted %d granted %d wait %d shed %d error %d\n", phase, o.attempted, o.granted, o.wait, o.shed, o.errs)
	res.attempted += int64(o.attempted)
	res.failed += int64(o.shed + o.errs)
	for _, v := range o.violation {
		res.problem("%s: %s", phase, v)
	}
	if o.firstErr != nil {
		c.printf("%s: first error: %v\n", phase, o.firstErr)
	}
}

func runAlloc(c *runCtx, spec allocSpec) (*result, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	res := newResult()
	rig, setup, err := setUp(c, func() (*allocRig, error) { return newAllocRig(c, spec, tr) }, (*allocRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res.env["open_loop_rate_per_s"] = fmt.Sprint(spec.rate)
	res.env["nodes"] = fmt.Sprint(len(rig.hosts))
	if c.trace {
		return tracedAlloc(c, spec, rig, tr, res)
	}

	openDur, closedDur := c.seconds/2, c.seconds/2
	clock := startRealClock(rig.sched)
	heap := startHeapPeak()
	before := rig.broker.Obs().Snapshot()
	dec0 := rig.broker.DecisionCount()
	poller := newDecisionPoller(rig.broker, rig.hosts)
	poller.start(100 * time.Millisecond)

	open := runOpenLoop(rig.pool, openLoopSchedule(c.seed, spec.rate, openDur, spec.scale), c.nproc, rig.chk, nil, 0)
	// place_cost reads the open-loop decisions only: that phase answers a
	// fixed set of requests, while how many the closed loop completes
	// depends on speed.
	poller.poll()
	openCost := poller.costs()
	closed, wall := runClosedLoop(rig.pool, requestStream(c.seed^0xc1053d, 4096, spec.scale), c.nproc, closedDur, rig.chk)

	poller.finish()
	heapMB := heap.mb()
	clock.close()
	d := counterDelta{before, rig.broker.Obs().Snapshot()}
	reconcile(res, d, float64(rig.broker.DecisionCount()-dec0), open, closed)
	tally(c, res, "open-loop", open)
	tally(c, res, "closed-loop", closed)
	poller.check(res)
	if openCost.n() == 0 {
		res.problem("no granted net-load-aware decision to price")
	}

	tail, tailQ := open.byWindow.tail()
	peak, peakWindows := medianRate(&closed.doneAt, wall)
	res.metrics["setup_s"] = setup.median()
	res.metrics["p50_ms"] = closed.lat.median()
	res.metrics["rate_per_s"] = peak
	res.metrics["place_cost"] = openCost.mean()
	res.metrics["heap_peak_mb"] = heapMB
	lateTail, lateQ := open.late.tail()
	res.env["gen_late_p50_ms"] = fmt.Sprintf("%.4f", open.late.median())
	res.env[fmt.Sprintf("gen_late_p%g_ms", lateQ)] = fmt.Sprintf("%.4f", lateTail)

	c.printf("setup_s = %.4f s (median of %d)\n", setup.median(), setup.n())
	c.printf("p50_ms = %.4f ms (closed loop, %d outstanding, n=%d)\n", res.metrics["p50_ms"], c.nproc, closed.lat.n())
	c.printf("alloc_p50_ms = %.4f ms (open loop at %g/s, n=%d; not gated)\n", open.lat.median(), spec.rate, open.lat.n())
	c.printf("alloc_p99_ms: whole phase %s\n", fmtTail(&open.lat, "ms"))
	c.printf("alloc tail: p%g = %.4f ms (median over %d windows of %d)\n", tailQ, tail, len(open.byWindow.w), openWindowSize)
	c.printf("alloc_peak_per_s = %.1f 1/s (closed loop, %d outstanding, median of %d windows; whole phase %.1f)\n",
		peak, c.nproc, peakWindows, float64(closed.granted+closed.wait)/wall.Seconds())
	c.printf("place_cost = %.5f (n=%d net-load-aware grants in the open loop)\n", res.metrics["place_cost"], openCost.n())
	c.printf("heap_peak_mb = %.2f MB\n", heapMB)
	c.printf("generator lateness: p50 %.4f ms, %s\n", open.late.median(), fmtTail(&open.late, "ms"))
	return res, nil
}

// modelPolicies are the policies the in-process layer phase prices.
var modelPolicies = map[string]alloc.ModelPolicy{
	alloc.NetLoadAware{}.Name(): alloc.NetLoadAware{},
	alloc.LoadAware{}.Name():    alloc.LoadAware{},
	alloc.Random{}.Name():       alloc.Random{},
	alloc.Sequential{}.Name():   alloc.Sequential{},
}

// tracedAlloc is the per-layer run of an allocate workload, in four
// phases that together last the run's seconds:
//
//	A  1/3  open loop over TCP, tracing off: the overhead reference
//	B  1/3  the same traffic traced: client round trips, Health round
//	        trips, store calls and world steps
//	C  1/6  closed loop, traced: the broker's batch and cache counters
//	D  1/6  in-process at the same rate: a second broker over the same store
//	   answers each request (broker.allocate), then the benchmark's own
//	   snapshot cache, cost model and policy repeat the broker's steps
//	   one layer at a time
func tracedAlloc(c *runCtx, spec allocSpec, rig *allocRig, tr *tracer, res *result) (*result, error) {
	openDur, closedDur := c.seconds/3, c.seconds/6
	clock := startRealClock(rig.sched)
	defer clock.close()

	a := runOpenLoop(rig.pool, openLoopSchedule(c.seed, spec.rate, openDur, spec.scale), c.nproc, rig.chk, nil, 0)
	tr.on.Store(true)
	phaseStart := time.Now()
	b := runOpenLoop(rig.pool, openLoopSchedule(c.seed+1, spec.rate, openDur, spec.scale), c.nproc, rig.chk, tr, 10)
	before := rig.broker.Obs().Snapshot()
	cl, _ := runClosedLoop(rig.pool, requestStream(c.seed^0xc1053d, 4096, spec.scale), c.nproc, closedDur, rig.chk)
	d := counterDelta{before, rig.broker.Obs().Snapshot()}
	layers, err := inprocLayers(c, spec, rig, tr)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(phaseStart)
	tr.on.Store(false)
	tally(c, res, "reference open loop", a)
	tally(c, res, "traced open loop", b)
	tally(c, res, "traced closed loop", cl)
	res.attempted += int64(layers.n)

	m := res.metrics
	rtt := tr.durations("broker.client.rtt")
	m["broker.client.rtt_p50_us"] = rtt.median()
	m["broker.client.rtt_tail_us"], _ = rtt.tail()
	m["broker.wire.health_p50_us"] = tr.durations("broker.wire.health").median()
	ba := tr.durations("broker.allocate")
	m["broker.allocate_p50_us"] = ba.median()
	m["broker.allocate_tail_us"], _ = ba.tail()
	m["broker.gap_us"] = rtt.mean() - ba.mean()
	m["broker.inproc_gap_us"] = ba.mean() - layers.sum.mean()
	ref := tr.durations("monitor.snapcache.refresh")
	m["monitor.snapcache.refresh_p50_us"] = ref.median()
	m["monitor.snapcache.refresh_tail_us"], _ = ref.tail()
	m["monitor.snapcache.keys_reread"] = ratio(tr.counter("monitor.snapcache.keys_reread"), float64(ref.n()))
	m["alloc.costmodel.build_us"] = tr.durations("alloc.costmodel.build").median()
	up := tr.durations("alloc.costmodel.update")
	m["alloc.costmodel.update_p50_us"] = up.median()
	m["alloc.costmodel.update_tail_us"], _ = up.tail()
	sel := tr.durations("alloc.select")
	m["alloc.select_p50_us"] = sel.median()
	m["alloc.select_tail_us"], _ = sel.tail()
	m["alloc.candidates"] = ratio(tr.counter("alloc.candidates"), float64(sel.n()))
	m["broker.modelcache.hit_ratio"] = ratio(d.c("broker.modelcache.hits"), d.c("broker.modelcache.hits")+d.c("broker.modelcache.misses"))
	m["broker.model.incremental_ratio"] = ratio(d.c("broker.model.update.incremental"), d.c("broker.model.update.incremental")+d.c("broker.model.update.full"))
	m["broker.batch.size_mean"] = d.histMean("broker.batch.size")
	m["broker.batch.dedup_ratio"] = ratio(d.c("broker.batch.dedup.hits"), d.c("broker.allocate.total"))
	m["broker.shed"] = d.c("broker.admit.shed.total")
	m["broker.degraded"] = d.c("broker.allocate.degraded")
	m["broker.alloc.shard.spills"] = d.c("broker.alloc.shard.spills")
	worldAndStore(tr, m, tracedWall)
	late, _ := a.late.tail()
	m["bench.gen_late_p99_ms"] = late
	m["bench.trace_overhead_pct"] = 100 * (b.lat.median() - a.lat.median()) / a.lat.median()

	c.printf("allocate time split, %s (mean µs per allocate; whole = client round trip):\n", spec.name)
	rows := []struct {
		name string
		v    float64
	}{
		{"monitor.snapcache.refresh", layers.refresh.mean()},
		{"alloc.costmodel (build+update, per allocate)", layers.model.mean()},
		{"alloc.select (Algorithms 1+2)", layers.sel.mean()},
		{"broker in-process rest (decision record, last-good clone, hostfile, wait heuristic)", m["broker.inproc_gap_us"]},
		{"wire + admission + batch wait + encode/flush", m["broker.gap_us"]},
	}
	for _, r := range rows {
		c.printf("  %-88s %10.1f\n", r.name, r.v)
	}
	c.printf("  %-88s %10.1f\n", "sum of measured layers (refresh + model + select)", layers.sum.mean())
	c.printf("  %-88s %10.1f\n", "whole (broker.client.rtt)", rtt.mean())
	c.printf("  %-88s %10.1f\n", "gap: whole - sum of measured layers", rtt.mean()-layers.sum.mean())
	c.printf("trace overhead: open-loop p50 %.4f ms traced vs %.4f ms untraced (%+.1f%%)\n",
		b.lat.median(), a.lat.median(), m["bench.trace_overhead_pct"])
	printLayers(c, m)
	if err := tr.writeJSONL(traceFile(spec.name), traceWriteLimit); err != nil {
		c.printf("trace not written: %v\n", err)
	}
	return res, nil
}

// layerSplit holds the in-process phase's per-request layer times (µs).
type layerSplit struct {
	n                        int
	refresh, model, sel, sum samples
}

// modelBuilds is how many full cost-model builds phase D times before
// its requests.
const modelBuilds = 5

// inprocLayers is phase D of tracedAlloc.
func inprocLayers(c *runCtx, spec allocSpec, rig *allocRig, tr *tracer) (*layerSplit, error) {
	shadow := broker.New(rig.vst, rig.sched, rig.bcfg)
	cache := monitor.NewSnapshotCache(rig.vst, nil, nil)
	// Warm the second broker and the benchmark's own cache and model up
	// untimed, as newAllocRig does for the served broker, so the phase
	// times steady-state calls and not the first full read of the view.
	warm := broker.Request{Procs: 8 * spec.scale, PPN: paperPPN}
	if _, err := shadow.Allocate(warm); err != nil {
		return nil, fmt.Errorf("in-process warm-up allocate: %w", err)
	}
	warmReq, err := alloc.Request{Procs: warm.Procs, PPN: warm.PPN}.Validate()
	if err != nil {
		return nil, err
	}
	ref, err := cache.Refresh(rig.sched.Now())
	if err != nil {
		return nil, fmt.Errorf("warm-up snapshot refresh: %w", err)
	}
	// A full build happens only when a refresh cannot be applied as an
	// update, which may not happen in the phase at all, so the build is
	// timed here on the warm view.
	var model *alloc.CostModel
	for i := 0; i < modelBuilds; i++ {
		h := tr.begin("alloc.costmodel.build", 0, -1)
		model = alloc.NewCostModelSharded(ref.Snap, warmReq.Weights, false, rig.shard)
		tr.end(h)
	}
	modelFP := ref.FP
	r := rng.New(c.seed ^ 0x1a7e5)
	out := &layerSplit{}
	items := openLoopSchedule(c.seed+2, spec.rate, c.seconds/6, spec.scale)
	start := time.Now()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, it := range items {
		waitUntil(start.Add(it.due))
		id := reqID.Add(1)
		root := tr.begin("request", id, -1)
		h := tr.begin("broker.allocate", id, root.idx)
		if _, err := shadow.Allocate(it.req); err != nil {
			return nil, fmt.Errorf("in-process allocate: %w", err)
		}
		tr.end(h)

		h = tr.begin("monitor.snapcache.refresh", id, root.idx)
		ref, err := cache.Refresh(rig.sched.Now())
		tRefresh := tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("snapshot refresh: %w", err)
		}
		tr.count("monitor.snapcache.keys_reread", float64(ref.KeysReread))

		req, err := alloc.Request{Procs: it.req.Procs, PPN: it.req.PPN, Alpha: it.req.Alpha, Beta: it.req.Beta}.Validate()
		if err != nil {
			return nil, err
		}
		var tModel time.Duration
		if ref.FP != modelFP {
			updated := false
			if ref.Incremental && ref.PrevFP == modelFP {
				h = tr.begin("alloc.costmodel.update", id, root.idx)
				m, ok := model.UpdateNodes(ref.Snap, ref.ChangedNodes)
				tModel = tr.end(h)
				if ok {
					model, updated = m, true
				}
			}
			if !updated {
				h = tr.begin("alloc.costmodel.build", id, root.idx)
				model = alloc.NewCostModelSharded(ref.Snap, req.Weights, false, rig.shard)
				tModel += tr.end(h)
			}
			modelFP = ref.FP
		}
		h = tr.begin("alloc.select", id, root.idx)
		if _, err := modelPolicies[it.req.Policy].AllocateModel(model, req, r.Split()); err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
		tSel := tr.end(h)
		tr.count("alloc.candidates", float64(model.Len()))
		tr.end(root)
		out.n++
		out.refresh.add(us(tRefresh))
		out.model.add(us(tModel))
		out.sel.add(us(tSel))
		out.sum.add(us(tRefresh + tModel + tSel))
	}
	return out, nil
}

// worldAndStore fills the world and store metrics from the spans.
func worldAndStore(tr *tracer, m map[string]float64, wall time.Duration) {
	ws := tr.durations("world.step")
	m["world.step_p50_us"] = ws.median()
	m["world.step_tail_us"], _ = ws.tail()
	m["world.steps"] = float64(ws.n())
	m["world.wall_share"] = ws.sum() / (float64(wall) / 1e3)
	puts, gets := tr.durations("store.put"), tr.durations("store.get")
	m["store.put_us"] = puts.median()
	m["store.get_us"] = gets.median()
	m["store.puts"] = float64(puts.n())
	m["store.gets"] = float64(gets.n())
	m["store.bytes_per_put"] = ratio(tr.counter("store.bytes_put"), float64(puts.n()))
}

// traceWriteLimit caps the spans written per traced run.
const traceWriteLimit = 200_000

// traceFile is where a traced run writes its spans, inside the build
// directory of the checkout.
func traceFile(workload string) string {
	return fmt.Sprintf(".bench_build/trace/%s.spans.jsonl", workload)
}

// printLayers prints every per-layer metric the workload measured.
func printLayers(c *runCtx, m map[string]float64) {
	for _, d := range perLayer {
		if v, ok := m[d.name]; ok {
			c.printf("  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}
