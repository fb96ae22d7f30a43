package main

import (
	"fmt"
	"sort"
	"time"

	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/jobqueue"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
)

// The jobs-60 loop: rounds of paper-sized jobs arrive as a Poisson burst
// in virtual time and the simulation runs as fast as it can until every
// job of the round has completed. A steady stream does not work here:
// below the cluster's capacity the load never reaches the broker's wait
// threshold, and above it the FIFO queue grows without bound.
const (
	// jobsPerRound is three of every (app, procs, size) combination.
	jobsPerRound = 132
	// jobArrivalMean is the mean virtual gap between submissions: dense
	// enough that the cluster's load passes the broker's wait threshold
	// and the queue sees wait answers (§6); the queue still drains.
	jobArrivalMean = 250 * time.Millisecond
	// loopChunk is the virtual time one RunFor call advances.
	loopChunk = 10 * time.Second
	// jobWindow is how many jobs (in submission order) a latency window
	// holds; each window's tail is then a p90.
	jobWindow = 100
	// roundLimit fails a round that has not drained in this much virtual
	// time.
	roundLimit = 12 * time.Hour
)

// The paper's problem sizes (§5): miniMD's s and miniFE's nx.
var (
	miniMDSizes = []int{8, 16, 24, 32, 40, 48}
	miniFESizes = []int{48, 96, 144, 256, 384}
)

// drawJobs draws one round of submissions of the paper's shapes. Every
// (app, process count, size) combination appears equally often; the seed
// decides their order and each job's α/β.
func drawJobs(r *rng.Rand, n int) []broker.SubmitRequest {
	type combo struct {
		app   string
		procs int
		size  int
		comm  [2]float64
	}
	var combos []combo
	for _, p := range miniMDProcs {
		for _, sz := range miniMDSizes {
			combos = append(combos, combo{"minimd", p, sz, miniMDComm})
		}
	}
	for _, p := range miniFEProcs {
		for _, sz := range miniFESizes {
			combos = append(combos, combo{"minife", p, sz, miniFEComm})
		}
	}
	deck := make([]int, n)
	for i := range deck {
		deck[i] = i % len(combos)
	}
	r.Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	out := make([]broker.SubmitRequest, n)
	for i, k := range deck {
		c := combos[k]
		alpha, beta := apps.SuggestAlphaBeta(r.Range(c.comm[0], c.comm[1]))
		out[i] = broker.SubmitRequest{
			Name:    fmt.Sprintf("%s-%d", c.app, c.size),
			App:     c.app,
			Size:    c.size,
			Request: broker.Request{Procs: c.procs, PPN: paperPPN, Alpha: alpha, Beta: beta},
		}
	}
	return out
}

// jobRig is the paper's loop: the IITK stack with a FIFO queue driven
// through a WorldManager.
type jobRig struct {
	*stack
	q   *jobqueue.Queue
	mgr *jobqueue.WorldManager
}

func newJobRig(c *runCtx, tr *tracer) (*jobRig, error) {
	st, err := newIITKStack(c.seed, tr)
	if err != nil {
		return nil, err
	}
	q := jobqueue.New(st.broker, st.sched, jobqueue.Config{})
	if err := q.Start(); err != nil {
		st.close()
		return nil, err
	}
	st.stops = append(st.stops, q.Stop)
	return &jobRig{stack: st, q: q, mgr: jobqueue.NewWorldManager(q, st.world)}, nil
}

// wallMap maps virtual instants of a loop to wall instants by linear
// interpolation between the chunk boundaries where both were read.
type wallMap struct {
	virt []time.Time
	wall []time.Time
}

func (m *wallMap) mark(v, w time.Time) {
	m.virt = append(m.virt, v)
	m.wall = append(m.wall, w)
}

func (m *wallMap) at(v time.Time) time.Time {
	i := sort.Search(len(m.virt), func(i int) bool { return !m.virt[i].Before(v) })
	switch {
	case i == 0:
		return m.wall[0]
	case i == len(m.virt):
		return m.wall[len(m.wall)-1]
	}
	span := m.virt[i].Sub(m.virt[i-1])
	if span <= 0 {
		return m.wall[i]
	}
	frac := float64(v.Sub(m.virt[i-1])) / float64(span)
	return m.wall[i-1].Add(time.Duration(frac * float64(m.wall[i].Sub(m.wall[i-1]))))
}

// loopStats accumulates the rounds of one phase.
type loopStats struct {
	jobs, done, failed int
	rounds             int
	wall               time.Duration
	perJobMS           samples   // per round: wall ms of the round per job
	latMS              samples   // job wall ms from submit to completion
	latW               []float64 // the same, in submission order
	execS              samples   // virtual execution seconds
	waitS              samples   // virtual submit-to-start seconds
	// attempts and waits count allocation attempts and wait answers.
	attempts, waits int
	problems        []string
	report          []string // one line per round
}

func (ls *loopStats) rate() float64 { return float64(ls.done) / ls.wall.Seconds() }

// latWindows reads the job latencies in windows of jobWindow jobs.
func (ls *loopStats) latWindows() *windowed {
	w := newWindowed(time.Duration(len(ls.latW)), len(ls.latW)/jobWindow)
	for i, v := range ls.latW {
		w.add(time.Duration(i), v)
	}
	return w
}

// runRound submits one round of jobs at their virtual arrival times and
// advances the simulation until all of them have finished.
func (j *jobRig) runRound(seed uint64, round int, tr *tracer, ls *loopStats) {
	r := rng.New(seed*7919 + uint64(round))
	start := j.sched.Now()
	ids := make([]int, 0, jobsPerRound)
	submitted := 0
	at := start
	for _, req := range drawJobs(r, jobsPerRound) {
		at = at.Add(time.Duration(r.Exp(1/jobArrivalMean.Seconds()) * float64(time.Second)))
		req := req
		j.sched.At(at, "bench.submit", func(time.Time) {
			h := tr.begin("jobqueue.submit", 0, tr.parent())
			id, err := j.mgr.Submit(req)
			tr.end(h)
			submitted++
			if err != nil {
				ls.problems = append(ls.problems, fmt.Sprintf("submit %s: %v", req.Name, err))
				return
			}
			ids = append(ids, id)
		})
	}
	var wm wallMap
	wallStart := time.Now()
	wm.mark(start, wallStart)
	finished := func() bool {
		if submitted < jobsPerRound {
			return false
		}
		for _, id := range ids {
			if job, _ := j.q.Job(id); job.State != jobqueue.StateDone && job.State != jobqueue.StateFailed {
				return false
			}
		}
		return true
	}
	for !finished() {
		if j.sched.Now().Sub(start) > roundLimit {
			ls.problems = append(ls.problems, fmt.Sprintf("round %d did not drain in %v of virtual time", round, roundLimit))
			break
		}
		h := tr.begin("sched.advance", uint64(round), -1)
		tr.setParent(h.idx)
		j.sched.RunFor(loopChunk)
		tr.setParent(-1)
		tr.end(h)
		wm.mark(j.sched.Now(), time.Now())
	}
	roundWall := time.Since(wallStart)
	ls.wall += roundWall
	ls.rounds++
	ls.jobs += len(ids)
	waits := 0
	for _, id := range ids {
		job, _ := j.q.Job(id)
		ls.attempts += job.Attempts
		ls.waits += job.WaitAnswers
		waits += job.WaitAnswers
		if job.State != jobqueue.StateDone {
			ls.failed++
			ls.problems = append(ls.problems, fmt.Sprintf("job %d (%s) ended %s: %v", id, job.Name, job.State, job.Err))
			continue
		}
		ls.done++
		info, _ := j.mgr.Status(id)
		ls.execS.add(info.Elapsed.Seconds())
		ls.waitS.add(job.Started.Sub(job.Submitted).Seconds())
		ms := float64(wm.at(job.Finished).Sub(wm.at(job.Submitted))) / 1e6
		ls.latMS.add(ms)
		ls.latW = append(ls.latW, ms)
	}
	if len(ids) > 0 {
		ls.perJobMS.add(float64(roundWall) / 1e6 / float64(len(ids)))
	}
	ls.report = append(ls.report, fmt.Sprintf("round %d: %d jobs, %v virtual in %v wall, %d wait answers",
		round, len(ids), j.sched.Now().Sub(start).Round(time.Second), roundWall.Round(time.Millisecond), waits))
}

// runRounds runs rounds until dur has passed (at least one); every runs
// after each round.
func (j *jobRig) runRounds(seed uint64, first int, dur time.Duration, tr *tracer, every func()) *loopStats {
	ls := &loopStats{}
	deadline := time.Now().Add(dur)
	for round := first; round == first || time.Now().Before(deadline); round++ {
		j.runRound(seed, round, tr, ls)
		if every != nil {
			every()
		}
	}
	return ls
}

func runJobs(c *runCtx) (*result, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	res := newResult()
	rig, setup, err := setUp(c, func() (*jobRig, error) { return newJobRig(c, tr) }, (*jobRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res.env["jobs"] = fmt.Sprintf("rounds of %d jobs, mean arrival gap %v virtual, FIFO", jobsPerRound, jobArrivalMean)
	if c.trace {
		return tracedJobs(c, rig, tr, res)
	}

	heap := startHeapPeak()
	before := rig.broker.Obs().Snapshot()
	dec0 := rig.broker.DecisionCount()
	poller := newDecisionPoller(rig.broker, rig.hosts)
	ls := rig.runRounds(c.seed, 0, c.seconds, nil, poller.poll)
	poller.finish()
	heapMB := heap.mb()
	finishLoop(res, ls)
	poller.check(res)
	reconcileJobs(c, res, ls, counterDelta{before, rig.broker.Obs().Snapshot()}, float64(rig.broker.DecisionCount()-dec0))

	m := res.metrics
	lat := ls.latWindows()
	tail, tailQ := lat.tail()
	m["setup_s"] = setup.median()
	m["p50_ms"] = ls.perJobMS.median()
	m["rate_per_s"] = ls.rate()
	m["place_cost"] = poller.cost.mean()
	m["heap_peak_mb"] = heapMB
	c.printf("setup_s = %.4f s (median of %d)\n", setup.median(), setup.n())
	for _, line := range ls.report {
		c.printf("  %s\n", line)
	}
	c.printf("rounds %d: jobs %d done %d failed %d, attempts %d, wait answers %d\n", ls.rounds, ls.jobs, ls.done, ls.failed, ls.attempts, ls.waits)
	c.printf("job_exec_s = %.4f virtual s (median, n=%d)\n", ls.execS.median(), ls.execS.n())
	c.printf("job_wait_s = %.4f virtual s (mean)\n", ls.waitS.mean())
	c.printf("loop_jobs_per_s = %.2f 1/s\n", m["rate_per_s"])
	c.printf("loop wall ms per job = %.3f (median of %d rounds; p50_ms)\n", m["p50_ms"], ls.perJobMS.n())
	c.printf("job wall latency, submit to completion: p%g %.3f ms (median of %d windows of %d jobs); whole run p50 %.3f ms, %s\n",
		tailQ, tail, len(lat.w), jobWindow, ls.latMS.median(), fmtTail(&ls.latMS, "ms"))
	c.printf("place_cost = %.5f (n=%d net-load-aware grants)\n", m["place_cost"], poller.cost.n())
	c.printf("heap_peak_mb = %.2f MB\n", heapMB)
	return res, nil
}

// finishLoop turns the loop tallies into the result's counts and checks.
func finishLoop(res *result, ls *loopStats) {
	res.attempted += int64(ls.jobs)
	res.failed += int64(ls.failed)
	res.problems = append(res.problems, ls.problems...)
	if ls.done+ls.failed != ls.jobs {
		res.problem("%d done + %d failed != %d submitted", ls.done, ls.failed, ls.jobs)
	}
}

// reconcileJobs checks the queue's own tallies against the broker's
// counters: every allocation attempt of a job is one broker decision, a
// wait answer one broker.allocate.wait, a launch one broker.allocate.ok.
func reconcileJobs(c *runCtx, res *result, ls *loopStats, d counterDelta, decisions float64) {
	launched := float64(ls.done + ls.failed)
	c.printf("allocate attempts %d: granted %v wait %d shed 0 error %v\n", ls.attempts, launched, ls.waits, d.c("broker.allocate.errors"))
	pairs := []struct {
		what      string
		got, want float64
	}{
		{"broker.allocate.total vs job attempts", d.c("broker.allocate.total"), float64(ls.attempts)},
		{"broker.allocate.wait vs wait answers", d.c("broker.allocate.wait"), float64(ls.waits)},
		{"broker.allocate.ok vs launches", d.c("broker.allocate.ok"), launched},
		{"broker.allocate.errors", d.c("broker.allocate.errors"), 0},
		{"DecisionCount delta vs broker.allocate.total", decisions, d.c("broker.allocate.total")},
	}
	for _, p := range pairs {
		if p.got != p.want {
			res.problem("reconcile %s: %v != %v", p.what, p.got, p.want)
		}
	}
}

// tracedJobs runs rounds for half the time untraced (the overhead
// reference), then for half traced: every RunFor chunk, world step,
// store call and submit is a span, and the benchmark's own snapshot cache
// refreshes over the same store after every round as a control.
func tracedJobs(c *runCtx, rig *jobRig, tr *tracer, res *result) (*result, error) {
	poller := newDecisionPoller(rig.broker, rig.hosts)
	plain := rig.runRounds(c.seed, 0, c.seconds/2, nil, poller.poll)
	cache := monitor.NewSnapshotCache(rig.vst, nil, nil)
	before := rig.broker.Obs().Snapshot()
	tr.on.Store(true)
	phaseStart := time.Now()
	traced := rig.runRounds(c.seed, 1000, c.seconds/2, tr, func() {
		poller.poll()
		h := tr.begin("monitor.snapcache.refresh", 0, -1)
		ref, err := cache.Refresh(rig.sched.Now())
		tr.end(h)
		if err == nil {
			tr.count("monitor.snapcache.keys_reread", float64(ref.KeysReread))
		}
	})
	wall := time.Since(phaseStart)
	tr.on.Store(false)
	poller.finish()
	finishLoop(res, plain)
	finishLoop(res, traced)
	poller.check(res)
	d := counterDelta{before, rig.broker.Obs().Snapshot()}

	m := res.metrics
	worldAndStore(tr, m, wall)
	ref := tr.durations("monitor.snapcache.refresh")
	m["monitor.snapcache.refresh_p50_us"] = ref.median()
	m["monitor.snapcache.refresh_tail_us"], _ = ref.tail()
	m["monitor.snapcache.keys_reread"] = ratio(tr.counter("monitor.snapcache.keys_reread"), float64(ref.n()))
	m["broker.modelcache.hit_ratio"] = ratio(d.c("broker.modelcache.hits"), d.c("broker.modelcache.hits")+d.c("broker.modelcache.misses"))
	m["broker.model.incremental_ratio"] = ratio(d.c("broker.model.update.incremental"), d.c("broker.model.update.incremental")+d.c("broker.model.update.full"))
	m["broker.degraded"] = d.c("broker.allocate.degraded")
	m["jobqueue.submit_us"] = tr.durations("jobqueue.submit").median()
	m["jobqueue.attempts_per_job"] = ratio(float64(traced.attempts), float64(traced.jobs))
	m["jobqueue.wait_answers"] = float64(traced.waits)
	self := tr.selfBy("sched.advance")
	m["sched.advance_self_us"] = self.median()
	m["job_exec_s"] = traced.execS.median()
	m["job_wait_s"] = traced.waitS.mean()
	m["bench.trace_overhead_pct"] = 100 * (plain.rate() - traced.rate()) / plain.rate()
	c.printf("loop_jobs_per_s: %.2f untraced, %.2f traced\n", plain.rate(), traced.rate())
	printLayers(c, m)
	if err := tr.writeJSONL(traceFile("jobs-60"), traceWriteLimit); err != nil {
		c.printf("trace not written: %v\n", err)
	}
	return res, nil
}
