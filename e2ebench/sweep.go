package main

import (
	"fmt"
	"time"

	"nlarm/internal/sim"
)

// The sweep-1024 scenarios: policy-fidelity runs of sim.ScaledWorkload
// on 1024 nodes under EASY backfill.
const (
	sweepConfigs     = 16
	sweepNodes       = 1024
	sweepJobs        = 5000
	sweepUtilization = 0.65
)

// sweepSet draws the fixed scenario set from the benchmark seed.
func sweepSet(seed uint64, jobs int) []sim.ScenarioConfig {
	cfgs := make([]sim.ScenarioConfig, sweepConfigs)
	for i := range cfgs {
		cfgs[i] = sim.ScenarioConfig{
			Seed:         seed*1000 + uint64(i) + 1,
			Nodes:        sweepNodes,
			CoresPerNode: 8,
			Workload:     sim.ScaledWorkload(jobs, sweepNodes, sweepUtilization),
			Discipline:   sim.EASY,
			Policy:       &sim.PolicyConfig{},
		}
	}
	return cfgs
}

// checkSweep verifies one sweep's outputs: every job either completed or
// was rejected, and the policy layer never fell back to an uncharged
// model.
func checkSweep(res *result, sw *sim.SweepResult) {
	for i, r := range sw.Results {
		if r.Completed+r.Rejected != r.Jobs {
			res.problem("sweep run %d: %d completed + %d rejected != %d jobs", i, r.Completed, r.Rejected, r.Jobs)
		}
		if r.Policy == nil {
			res.problem("sweep run %d: no policy stats on a policy-fidelity run", i)
		} else if r.Policy.FallbackDecisions != 0 {
			res.problem("sweep run %d: %d fallback decisions", i, r.Policy.FallbackDecisions)
		}
	}
}

func runSweep(c *runCtx) (*result, error) {
	res := newResult()
	cfgs, setup, err := setUp(c, func() ([]sim.ScenarioConfig, error) {
		// One warm-up scenario fills the allocator's pools and lazy state
		// before anything is timed.
		if _, err := sim.RunScenario(sweepSet(c.seed, sweepJobs/4)[0], nil); err != nil {
			return nil, fmt.Errorf("warm-up scenario: %w", err)
		}
		return sweepSet(c.seed, sweepJobs), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res.env["sweep"] = fmt.Sprintf("%d configs x %d jobs, %d nodes, EASY, policy on, workers %d", sweepConfigs, sweepJobs, sweepNodes, c.nproc)

	heap := startHeapPeak()
	var digest string
	var perRun, cost, eff, sweepRate samples
	var jobs, completed, sweeps int
	var wall time.Duration
	deadline := time.Now().Add(c.seconds)
	for sweeps == 0 || time.Now().Before(deadline) {
		sw, err := sim.RunMany(cfgs, c.nproc)
		if err != nil {
			return nil, err
		}
		sweeps++
		wall += sw.WallTime
		checkSweep(res, sw)
		if digest == "" {
			digest = sw.Digest
		} else if sw.Digest != digest {
			res.problem("sweep digest moved between repeats: %s then %s", digest[:16], sw.Digest[:16])
		}
		sumRun := time.Duration(0)
		sweepDone := 0
		for _, r := range sw.Results {
			sweepDone += r.Completed
			jobs += r.Jobs
			completed += r.Completed
			perRun.add(float64(r.WallTime) / 1e6)
			sumRun += r.WallTime
			pc := r.Policy
			cost.add(0.5*pc.MeanCLCost + 0.5*pc.MeanNLCost)
		}
		eff.add(float64(sumRun) / (float64(sw.Workers) * float64(sw.WallTime)))
		sweepRate.add(float64(sweepDone) / sw.WallTime.Seconds())
	}
	heapMB := heap.mb()
	res.attempted = int64(jobs)

	// The digest must not depend on the worker count.
	one, err := sim.RunMany(cfgs, 1)
	if err != nil {
		return nil, err
	}
	if one.Digest != digest {
		res.problem("sweep digest with 1 worker %s != with %d workers %s", one.Digest[:16], c.nproc, digest[:16])
	}

	rate := float64(completed) / wall.Seconds()
	if c.trace {
		res.metrics["sim.sweep.parallel_eff"] = eff.median()
		return tracedSweep(c, res, cfgs, one)
	}
	byWindow := newWindowed(time.Duration(perRun.n()), perRun.n()/openWindowSize)
	for i, v := range perRun.v {
		byWindow.add(time.Duration(i), v)
	}
	tail, tailQ := byWindow.tail()
	res.metrics["setup_s"] = setup.median()
	res.metrics["p50_ms"] = perRun.median()
	res.metrics["rate_per_s"] = sweepRate.median()
	res.metrics["place_cost"] = cost.mean()
	res.metrics["heap_peak_mb"] = heapMB
	c.printf("setup_s = %.4f s (median of %d)\n", setup.median(), setup.n())
	c.printf("sweep_jobs_per_s = %.1f 1/s (median of %d sweeps; whole run %.1f; %d jobs completed of %d, digest %s)\n",
		sweepRate.median(), sweeps, rate, completed, jobs, digest[:16])
	c.printf("scenario wall p50 = %.3f ms; p%g %.3f ms (median of %d windows of %d runs); whole run %s\n",
		perRun.median(), tailQ, tail, len(byWindow.w), openWindowSize, fmtTail(&perRun, "ms"))
	c.printf("place_cost = %.5f (mean of α·CL+β·NL per scenario, α=β=0.5)\n", cost.mean())
	c.printf("heap_peak_mb = %.2f MB\n", heapMB)
	return res, nil
}

// tracedSweep times RunScenario on each config at policy fidelity and on
// its capacity twin (Policy nil), and reads the sim's own counters.
func tracedSweep(c *runCtx, res *result, cfgs []sim.ScenarioConfig, untraced *sim.SweepResult) (*result, error) {
	tr := newTracer()
	m := res.metrics
	var pol, capy time.Duration
	var events, decisions, refreshes, charged, fallbacks float64
	for _, cfg := range cfgs {
		h := tr.begin("sim.policy_run", cfg.Seed, -1)
		r, err := sim.RunScenario(cfg, nil)
		pol += tr.end(h)
		if err != nil {
			return nil, err
		}
		events += float64(r.EventsFired)
		decisions += float64(r.Policy.Decisions)
		refreshes += float64(r.Policy.ModelRefreshes)
		charged += float64(r.Policy.ChargedDecisions)
		fallbacks += float64(r.Policy.FallbackDecisions)
		twin := cfg
		twin.Policy = nil
		h = tr.begin("sim.capacity_run", cfg.Seed, -1)
		if _, err := sim.RunScenario(twin, nil); err != nil {
			return nil, err
		}
		capy += tr.end(h)
	}
	n := float64(len(cfgs))
	m["sim.policy_run_s"] = pol.Seconds() / n
	m["sim.capacity_run_s"] = capy.Seconds() / n
	m["sim.policy_share"] = ratio((pol - capy).Seconds(), pol.Seconds())
	m["sim.events"] = events / n
	m["sim.policy.decisions"] = decisions / n
	m["sim.policy.refreshes"] = refreshes / n
	m["sim.policy.charged"] = charged / n
	m["sim.policy.fallbacks"] = fallbacks
	// The traced pass runs the configs one at a time, like the untraced
	// one-worker sweep of the digest check, so the two compare directly.
	var plain time.Duration
	for _, r := range untraced.Results {
		plain += r.WallTime
	}
	m["bench.trace_overhead_pct"] = 100 * (pol - plain).Seconds() / plain.Seconds()
	if fallbacks != 0 {
		res.problem("policy layer fell back %v times", fallbacks)
	}
	printLayers(c, m)
	if err := tr.writeJSONL(traceFile("sweep-1024"), traceWriteLimit); err != nil {
		c.printf("trace not written: %v\n", err)
	}
	return res, nil
}
