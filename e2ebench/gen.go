package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/rng"
)

// The paper's request shapes (§5): miniMD and miniFE at these process
// counts, both at 4 processes per node.
var (
	miniMDProcs = []int{8, 16, 32, 64}
	miniFEProcs = []int{8, 16, 32, 48}
)

const paperPPN = 4

// Communication fractions the paper measured for each app (§5.1: miniMD
// spends 40-80% of its time communicating, miniFE 25-60%). Each request
// draws one and asks apps.SuggestAlphaBeta for its α/β.
var (
	miniMDComm = [2]float64{0.4, 0.8}
	miniFEComm = [2]float64{0.25, 0.6}
)

// policyMix is the share of requests per policy, in tenths: most use the
// paper's net-load-aware policy, a minority the three baselines.
var policyMix = []struct {
	name   string
	weight int
}{
	{alloc.NetLoadAware{}.Name(), 7},
	{alloc.LoadAware{}.Name(), 1},
	{alloc.Random{}.Name(), 1},
	{alloc.Sequential{}.Name(), 1},
}

// shape is one of the paper's request shapes.
type shape struct {
	procs int
	comm  [2]float64
}

// paperShapes lists every (app, process count) pair once.
func paperShapes() []shape {
	var out []shape
	for _, p := range miniMDProcs {
		out = append(out, shape{p, miniMDComm})
	}
	for _, p := range miniFEProcs {
		out = append(out, shape{p, miniFEComm})
	}
	return out
}

// drawRequests draws n allocate requests from the paper's mix, with the
// process counts multiplied by scale for clusters larger than the
// paper's. The mix is stratified: every (shape, policy) pair appears in
// its exact share (up to rounding at the end of the deck), and the seed
// decides their order and each request's α/β. A run's offered work then
// does not swing with which shapes a seed happened to favour.
func drawRequests(r *rng.Rand, n, scale int) []broker.Request {
	shapes := paperShapes()
	var policies []string
	for _, p := range policyMix {
		for k := 0; k < p.weight; k++ {
			policies = append(policies, p.name)
		}
	}
	// One deck entry per (shape, policy) pair, so every policy sees every
	// shape in the same proportion.
	deck := make([]int, n)
	for i := range deck {
		deck[i] = i % (len(shapes) * len(policies))
	}
	r.Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	out := make([]broker.Request, n)
	for i := range out {
		sh := shapes[deck[i]%len(shapes)]
		alpha, beta := apps.SuggestAlphaBeta(r.Range(sh.comm[0], sh.comm[1]))
		out[i] = broker.Request{
			Procs:  sh.procs * scale,
			PPN:    paperPPN,
			Alpha:  alpha,
			Beta:   beta,
			Policy: policies[deck[i]/len(shapes)],
		}
	}
	return out
}

// item is one scheduled request: due is its offset from the phase start.
type item struct {
	due time.Duration
	req broker.Request
}

// openLoopSchedule draws Poisson arrivals at rate per second over dur,
// each with a request from the mix. The same seed gives the same due
// times and requests.
func openLoopSchedule(seed uint64, rate float64, dur time.Duration, scale int) []item {
	r := rng.New(seed)
	var out []item
	t := 0.0
	for {
		t += r.Exp(rate)
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		out = append(out, item{due: due})
	}
	for i, req := range drawRequests(r, len(out), scale) {
		out[i].req = req
	}
	return out
}

// requestStream draws n requests from the mix for the closed loop.
func requestStream(seed uint64, n, scale int) []broker.Request {
	return drawRequests(rng.New(seed), n, scale)
}

// outcomes tallies the replies one phase received and checks every
// granted allocation.
type outcomes struct {
	mu        sync.Mutex
	lat       samples   // ms, from when each request was due (open loop) or sent
	late      samples   // ms the generator sent after the due time
	byWindow  *windowed // lat again, by when in the phase it was observed
	doneAt    samples   // offsets (s) at which granted and wait replies arrived
	attempted int
	granted   int
	wait      int
	shed      int
	errs      int
	firstErr  error
	violation []string
}

func newOutcomes(phase time.Duration, windows int) *outcomes {
	return &outcomes{byWindow: newWindowed(phase, windows)}
}

// record tallies one reply; at is its offset in the phase (the due time
// in an open loop, the completion time in a closed one).
func (o *outcomes) record(req broker.Request, resp broker.Response, err error, at, lat, late time.Duration, chk *checker) {
	var bad string
	if err == nil && resp.Recommendation == broker.RecommendAllocate {
		bad = chk.grant(req, resp)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	ms := float64(lat) / 1e6
	if err != nil {
		// A shed or failed request misses any latency limit.
		ms = math.Inf(1)
	} else {
		o.doneAt.add(at.Seconds())
	}
	o.lat.add(ms)
	o.late.add(float64(late) / 1e6)
	o.byWindow.add(at, ms)
	switch {
	case errors.Is(err, broker.ErrShed):
		o.shed++
	case err != nil:
		o.errs++
		if o.firstErr == nil {
			o.firstErr = err
		}
	case resp.Recommendation == broker.RecommendWait:
		o.wait++
	case resp.Recommendation == broker.RecommendAllocate:
		o.granted++
	default:
		o.errs++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("reply with recommendation %q", resp.Recommendation)
		}
	}
	if bad != "" && len(o.violation) < 10 {
		o.violation = append(o.violation, bad)
	}
}

// checker validates granted allocations against the cluster.
type checker struct {
	hosts map[int]string // live node ID → hostname
}

// grant returns "" when resp is a valid answer to req: every node is a
// live host, the per-node processes sum to the request, and each
// hostfile line names the node and its process count.
func (c *checker) grant(req broker.Request, resp broker.Response) string {
	sum := 0
	for _, n := range resp.Nodes {
		if _, ok := c.hosts[n]; !ok {
			return fmt.Sprintf("node %d is not a live host", n)
		}
		sum += resp.Procs[n]
	}
	if sum != req.Procs {
		return fmt.Sprintf("procs sum to %d, request asked %d", sum, req.Procs)
	}
	if len(resp.Procs) != len(resp.Nodes) || len(resp.Hostfile) != len(resp.Nodes) {
		return fmt.Sprintf("%d nodes, %d proc entries, %d hostfile lines", len(resp.Nodes), len(resp.Procs), len(resp.Hostfile))
	}
	for i, n := range resp.Nodes {
		if want := fmt.Sprintf("%s:%d", c.hosts[n], resp.Procs[n]); resp.Hostfile[i] != want {
			return fmt.Sprintf("hostfile line %q, want %q", resp.Hostfile[i], want)
		}
	}
	return ""
}

// reqID numbers requests across phases so a request's spans share an ID.
var reqID atomic.Uint64

// runOpenLoop sends every scheduled request at its due time from
// `workers` goroutines and waits for all replies. A request is timed
// from when it was due, so a stall in the system or the generator counts
// against the requests behind it. With healthEvery > 0 every
// healthEvery-th request is followed by a timed Health round trip on the
// same pool.
func runOpenLoop(cl *broker.Pool, items []item, workers int, chk *checker, tr *tracer, healthEvery int) *outcomes {
	var phase time.Duration
	if len(items) > 0 {
		phase = items[len(items)-1].due
	}
	out := newOutcomes(phase, openWindows(len(items)))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				due := start.Add(items[i].due)
				waitUntil(due)
				sent := time.Now()
				h := tr.begin("broker.client.rtt", reqID.Add(1), -1)
				resp, err := cl.Allocate(items[i].req)
				tr.end(h)
				out.record(items[i].req, resp, err, items[i].due, time.Since(due), sent.Sub(due), chk)
				if healthEvery > 0 && i%healthEvery == 0 {
					h := tr.begin("broker.wire.health", 0, -1)
					if err := cl.Health(); err != nil {
						out.mu.Lock()
						out.errs++
						if out.firstErr == nil {
							out.firstErr = fmt.Errorf("health: %w", err)
						}
						out.mu.Unlock()
					}
					tr.end(h)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// openWindowSize is how many requests an open-loop window holds: enough
// that each window's tail is a p90 with ten samples beyond it. The phase's
// tail is the median of the window tails, so one GC cycle or stolen vCPU
// moves one window, not the reading.
const openWindowSize = 100

// openWindows picks how many windows an open-loop phase of n requests is
// read in.
func openWindows(n int) int {
	if w := n / openWindowSize; w > 1 {
		return w
	}
	return 1
}

// Go's timers overshoot short sleeps by up to a millisecond on Linux,
// which would show up as generator lateness and inflate every open-loop
// latency. The generator sleeps only when the wait is long enough for
// the overshoot to stay under spinMargin, and yields the processor in a
// loop for the rest.
const (
	sleepAbove = 1500 * time.Microsecond
	spinMargin = 400 * time.Microsecond
)

// waitUntil returns at t.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > sleepAbove {
		time.Sleep(d - spinMargin)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runClosedLoop keeps `workers` requests outstanding (one per goroutine;
// each sends its next as soon as its last returns) until dur has passed,
// and returns the outcomes with the phase's wall time.
func runClosedLoop(cl *broker.Pool, reqs []broker.Request, workers int, dur time.Duration, chk *checker) (*outcomes, time.Duration) {
	out := newOutcomes(dur, 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := reqs[int(next.Add(1)-1)%len(reqs)]
				sent := time.Now()
				resp, err := cl.Allocate(req)
				out.record(req, resp, err, time.Since(start), time.Since(sent), 0, chk)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// decisionPoller follows a broker's decision log while a phase runs,
// averages the placement cost of granted net-load-aware decisions
// (α·ComputeCost + β·NetworkCost, Equation 4 over the chosen group) and
// checks that every granted decision placed its job on live hosts.
type decisionPoller struct {
	b        *broker.Broker
	hosts    map[int]string
	lastSeq  uint64
	cost     samples
	lost     uint64
	bad      []string // granted decisions on hosts outside livehosts
	stop     chan struct{}
	wg       sync.WaitGroup
	pollOnce sync.Mutex
}

func newDecisionPoller(b *broker.Broker, hosts map[int]string) *decisionPoller {
	p := &decisionPoller{b: b, hosts: hosts, stop: make(chan struct{})}
	p.lastSeq = b.DecisionCount()
	return p
}

func (p *decisionPoller) start(every time.Duration) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
}

// costs returns a copy of the placement costs read so far.
func (p *decisionPoller) costs() *samples {
	p.pollOnce.Lock()
	defer p.pollOnce.Unlock()
	return &samples{v: append([]float64(nil), p.cost.v...)}
}

// finish stops the poller and reads the decisions left in the log.
func (p *decisionPoller) finish() {
	close(p.stop)
	p.wg.Wait()
	p.poll()
}

// check adds the poller's findings to res.
func (p *decisionPoller) check(res *result) {
	if p.lost > 0 {
		res.problem("decision poller lost %d records", p.lost)
	}
	for _, b := range p.bad {
		res.problem("%s", b)
	}
	if p.cost.n() == 0 {
		res.problem("no granted net-load-aware decision to price")
	}
}

func (p *decisionPoller) poll() {
	p.pollOnce.Lock()
	defer p.pollOnce.Unlock()
	n := p.b.DecisionCount() - p.lastSeq
	if n == 0 {
		return
	}
	recs := p.b.Decisions(int(n) + 64)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, rec := range recs {
		if rec.Seq <= p.lastSeq {
			continue
		}
		if rec.Seq > p.lastSeq+1 {
			p.lost += rec.Seq - p.lastSeq - 1
		}
		p.lastSeq = rec.Seq
		if rec.Error == "" && rec.Recommendation == broker.RecommendAllocate {
			for _, n := range rec.Nodes {
				if _, ok := p.hosts[n]; !ok && len(p.bad) < 10 {
					p.bad = append(p.bad, fmt.Sprintf("decision %d placed on node %d, not a live host", rec.Seq, n))
				}
			}
		}
		if c, ok := placeCost(rec); ok {
			p.cost.add(c)
		}
	}
}

// placeCost prices a granted net-load-aware decision that was priced on
// a cost model (in-batch duplicates reuse the first answer and carry no
// cost breakdown, so they are skipped).
func placeCost(rec broker.DecisionRecord) (float64, bool) {
	if rec.Error != "" || rec.Recommendation != broker.RecommendAllocate ||
		rec.Policy != (alloc.NetLoadAware{}).Name() || rec.Candidates == 0 || len(rec.Contributions) == 0 {
		return 0, false
	}
	a, b := rec.Alpha, rec.Beta
	if a == 0 && b == 0 {
		a, b = 0.5, 0.5
	}
	return a*rec.ComputeCost + b*rec.NetworkCost, true
}
