package main

import (
	"fmt"
	"math"
	"time"

	"netcoord"
	"netcoord/internal/coord"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/metrics"
	"netcoord/internal/netsim"
	"netcoord/internal/sim"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
	"netcoord/internal/xrand"
)

// converge: rounds of netcoord.Simulate with DefaultConfig (MP filter
// and ENERGY) on a fresh seeded network, each run once on the
// sequential engine and once with Parallelism 2. The population and
// length are set so every link clears the filter's warm-up.
type converge struct {
	o       options
	round   uint64
	results []convergeRound
}

type convergeRound struct {
	seed     uint64
	seq, par netcoord.SimulationResult
}

// Properties the method must have at fullScale: 256 nodes × 1800 s
// measures a median relative error near 0.05 and an application
// update rate near 2% of the system one.
const (
	maxMedianRelErr = 0.15
	maxAppUpdates   = 0.1 // application updates per second, as a share of system updates
)

func newConverge(o options) *converge { return &converge{o: o} }

func (w *converge) config(seed uint64, seconds, parallelism int) netcoord.SimulationConfig {
	return netcoord.SimulationConfig{
		Nodes:       w.o.scale.simNodes,
		Seconds:     seconds,
		Client:      netcoord.DefaultConfig(),
		Seed:        seed,
		Parallelism: parallelism,
	}
}

// roundSeed derives round r's network seed from the run seed.
func roundSeed(seed, r uint64) uint64 { return seed*1_000_003 + r }

// setup is one short warm-up simulation: the code, the allocator and
// the heap reach their working size before anything is timed.
func (w *converge) setup() error {
	_, err := netcoord.Simulate(w.config(roundSeed(w.o.seed, math.MaxUint32), w.o.scale.warmSecs, 1))
	return err
}

// run does whole rounds until d has passed. The timings are process
// CPU per call: on a shared host a call's wall time also counts the
// time the host takes the CPU away (it is printed in the notes).
func (w *converge) run(d time.Duration, tr *tracer) (*runStats, error) {
	rs := &runStats{}
	var wallSeq, wallPar []float64
	hw := watchHeap()
	start, cpuStart := time.Now(), cpuTime()
	for rs.attempted == 0 || time.Since(start) < d {
		seed := roundSeed(w.o.seed, w.round)
		w.round++
		t0, cpu0 := time.Now(), cpuTime()
		seq, err := netcoord.Simulate(w.config(seed, w.o.scale.simSeconds, 1))
		t1, cpu1 := time.Now(), cpuTime()
		par, perr := netcoord.Simulate(w.config(seed, w.o.scale.simSeconds, 2))
		t2, cpu2 := time.Now(), cpuTime()
		rs.attempted += 2
		if err != nil || perr != nil {
			rs.failed += 2
			rs.notes = append(rs.notes, fmt.Sprintf("round seed %d: %v %v", seed, err, perr))
			continue
		}
		rs.primary = append(rs.primary, float64((cpu1 - cpu0).Microseconds()))
		rs.secondary = append(rs.secondary, float64((cpu2 - cpu1).Microseconds()))
		wallSeq = append(wallSeq, t1.Sub(t0).Seconds())
		wallPar = append(wallPar, t2.Sub(t1).Seconds())
		rs.items += float64(seq.Samples + par.Samples)
		if tr != nil {
			tr.add("sim.simulate", 0, t0.Sub(tr.t0).Nanoseconds(), t1.Sub(tr.t0).Nanoseconds())
			tr.add("sim.simulate_par2", 0, t1.Sub(tr.t0).Nanoseconds(), t2.Sub(tr.t0).Nanoseconds())
		}
		w.results = append(w.results, convergeRound{seed, seq, par})
	}
	rs.cpu = cpuTime() - cpuStart
	rs.heap = hw.Stop()
	if len(w.results) > 0 {
		r := w.results[len(w.results)-1].seq
		rs.notes = append(rs.notes,
			fmt.Sprintf("%d rounds of %d nodes × %d s; wall per call: sequential median %.3f s (%.0f samples/s), Parallelism 2 median %.3f s",
				len(rs.primary), w.o.scale.simNodes, w.o.scale.simSeconds, median(wallSeq), float64(r.Samples)/median(wallSeq), median(wallPar)),
			fmt.Sprintf("last round: median relative error sys %.4f app %.4f, updates/s sys %.4f app %.4f",
				r.System.MedianRelErr, r.App.MedianRelErr, r.System.UpdatesPerSecond, r.App.UpdatesPerSecond))
	}
	return rs, nil
}

// check requires every round to converge and both engines to agree
// bit for bit.
func (w *converge) check() error {
	if len(w.results) == 0 {
		return checkf("no simulation rounds")
	}
	for _, r := range w.results {
		if err := checkConverged(r.seq); err != nil {
			return checkf("seed %d: %v", r.seed, err)
		}
		if r.seq != r.par {
			return checkf("seed %d: Parallelism 1 gave %+v, Parallelism 2 gave %+v", r.seed, r.seq, r.par)
		}
	}
	return nil
}

// checkConverged tests the properties filtered Vivaldi with ENERGY
// must show once its links are warm: accurate system coordinates,
// application coordinates that update a small fraction as often, and
// less application instability than system instability.
func checkConverged(r netcoord.SimulationResult) error {
	switch {
	case !(r.System.MedianRelErr < maxMedianRelErr):
		return fmt.Errorf("system median relative error %.4f, want < %g", r.System.MedianRelErr, maxMedianRelErr)
	case !(r.System.UpdatesPerSecond > 0):
		return fmt.Errorf("system coordinates never updated")
	case !(r.App.UpdatesPerSecond <= maxAppUpdates*r.System.UpdatesPerSecond):
		return fmt.Errorf("application updates %.4f/s, want <= %g × system %.4f/s", r.App.UpdatesPerSecond, maxAppUpdates, r.System.UpdatesPerSecond)
	case !(r.App.MedianInstability < r.System.MedianInstability):
		return fmt.Errorf("application instability %.4f, want < system %.4f", r.App.MedianInstability, r.System.MedianInstability)
	}
	return nil
}

// replayNode is one node of the layer replay.
type replayNode struct {
	viv     *vivaldi.Node
	bank    *filter.Bank[int]
	policy  heuristic.Policy
	prevSys coord.Coordinate
	prevApp coord.Coordinate
}

// layers replays round 0's seeded trace through each layer's public
// function — generator, filter bank, Vivaldi, ENERGY, metric
// collectors — with a span around every call, then steps a sim.Runner
// over the same trace, counting its filter's outputs, and makes one
// Simulate call for its allocations and its update rates. The replay
// is only for the timings: it reads each peer's live coordinate where
// the runner reads the snapshot taken at the start of the tick, so its
// figures are not the program's.
func (w *converge) layers(tr *tracer, m map[string]metric) error {
	n, secs := w.o.scale.simNodes, w.o.scale.simSeconds
	seed := roundSeed(w.o.seed, 0)
	net, err := netsim.New(netsim.DefaultWideArea(n, seed))
	if err != nil {
		return err
	}
	gen, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: uint64(secs), Seed: seed + 1})
	if err != nil {
		return err
	}
	var samples []trace.Sample
	for {
		start := tr.now()
		s, ok := gen.Next()
		tr.add("trace.next", 0, start, tr.now())
		if !ok {
			break
		}
		samples = append(samples, s)
	}

	cfg := netcoord.DefaultConfig()
	mp := filter.DefaultMPConfig()
	factory := func() filter.Filter {
		f, err := filter.NewMP(mp)
		if err != nil {
			return filter.NewNone() // the default config always validates
		}
		return f
	}
	policy := func(dim int) (heuristic.Policy, error) {
		return heuristic.NewEnergy(dim, cfg.WindowSize, cfg.Threshold)
	}
	vcfg := vivaldi.DefaultConfig()
	vcfg.Seed = seed + 2
	nodes := make([]*replayNode, n)
	for i := range nodes {
		vc := vcfg
		vc.Seed = xrand.Hash64(vcfg.Seed, uint64(i)) // as sim.NewRunner seeds node i
		viv, err := vivaldi.New(vc)
		if err != nil {
			return err
		}
		pol, err := policy(vc.Dimension)
		if err != nil {
			return err
		}
		nodes[i] = &replayNode{viv: viv, bank: filter.NewBank[int](factory, 0), policy: pol,
			prevSys: coord.Origin(vc.Dimension), prevApp: coord.Origin(vc.Dimension)}
	}
	sys, err := metrics.NewCollector(n)
	if err != nil {
		return err
	}
	app, err := metrics.NewCollector(n)
	if err != nil {
		return err
	}
	sys.Reserve(uint64(secs), secs+1)
	app.Reserve(uint64(secs), secs+1)

	for _, s := range samples {
		if s.Lost || s.From == s.To {
			continue
		}
		src, dst := nodes[s.From], nodes[s.To]
		est, sep, err := src.viv.EstimateWithSeparation(dst.viv.CoordinateRef())
		if err != nil {
			return err
		}
		appEst, err := src.policy.AppRef().DistanceTo(dst.policy.AppRef())
		if err != nil {
			return err
		}
		start := tr.now()
		filtered, ok := src.bank.Observe(s.To, s.RTT)
		tr.add("filter.observe", 0, start, tr.now())
		var moved, appMoved float64
		var changed bool
		if ok {
			src.prevSys.CopyFrom(src.viv.CoordinateRef())
			start = tr.now()
			err := src.viv.UpdateWithSeparation(filtered, dst.viv.CoordinateRef(), dst.viv.Error(), sep)
			tr.add("vivaldi.update", 0, start, tr.now())
			if err != nil {
				return err
			}
			if moved, err = src.viv.CoordinateRef().DisplacementFrom(src.prevSys); err != nil {
				return err
			}
			src.prevApp.CopyFrom(src.policy.AppRef())
			start = tr.now()
			newApp, ch, err := src.policy.Observe(heuristic.Observation{Sys: src.viv.CoordinateRef()})
			tr.add("heuristic.observe", 0, start, tr.now())
			if err != nil {
				return err
			}
			changed = ch
			if appMoved, err = newApp.DisplacementFrom(src.prevApp); err != nil {
				return err
			}
		}
		start = tr.now()
		err = sys.RecordError(s.From, s.Tick, math.Abs(est-s.RTT)/s.RTT)
		err = cmpErr(err, app.RecordError(s.From, s.Tick, math.Abs(appEst-s.RTT)/s.RTT))
		if ok {
			err = cmpErr(err, sys.RecordMovement(s.From, s.Tick, moved, moved > 0))
			err = cmpErr(err, app.RecordMovement(s.From, s.Tick, appMoved, changed))
		}
		tr.add("metrics.record", 0, start, tr.now())
		if err != nil {
			return err
		}
	}
	start := tr.now()
	_, err = sys.Summarize(uint64(secs)/2, uint64(secs))
	if err == nil {
		_, err = app.Summarize(uint64(secs)/2, uint64(secs))
	}
	tr.add("metrics.summarize", 0, start, tr.now())
	if err != nil {
		return err
	}

	var observed, passed float64
	counting := func() filter.Filter { return &countingFilter{factory(), &observed, &passed} }
	runner, err := sim.NewRunner(sim.Config{
		Nodes: n, Vivaldi: vcfg, Filter: counting, Policy: policy, Parallelism: 1,
		ExpectedTicks: uint64(secs), ExpectedSamplesPerNode: secs + 1,
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		start := tr.now()
		err := runner.Step(s)
		tr.add("sim.step", 0, start, tr.now())
		if err != nil {
			return err
		}
	}

	allocs := heapObjects()
	r, err := netcoord.Simulate(w.config(seed, secs, 1))
	if err != nil {
		return err
	}
	m["sim.allocs_per_sample"] = metric{float64(heapObjects()-allocs) / float64(r.Samples), "count"}
	m["trace.next_ns"] = metric{tr.medianNs("trace.next"), "ns"}
	m["filter.observe_ns"] = metric{tr.medianNs("filter.observe"), "ns"}
	m["filter.pass_ratio"] = metric{passed / observed, "ratio"}
	m["vivaldi.update_ns"] = metric{tr.medianNs("vivaldi.update"), "ns"}
	m["heuristic.observe_ns"] = metric{tr.medianNs("heuristic.observe"), "ns"}
	m["heuristic.app_update_ratio"] = metric{r.App.UpdatesPerSecond / r.System.UpdatesPerSecond, "ratio"}
	m["metrics.record_ns"] = metric{tr.medianNs("metrics.record"), "ns"}
	m["metrics.summarize_ms"] = metric{tr.medianNs("metrics.summarize") / 1e6, "ms"}
	m["sim.step_ns"] = metric{tr.medianNs("sim.step"), "ns"}
	return nil
}

// countingFilter counts a sim.Runner's filter observations and the
// estimates they yield. The runner steps sequentially, so plain
// counters suffice.
type countingFilter struct {
	filter.Filter
	observed, passed *float64
}

func (c *countingFilter) Observe(sample float64) (float64, bool) {
	est, ok := c.Filter.Observe(sample)
	*c.observed++
	if ok {
		*c.passed++
	}
	return est, ok
}

// warmup has nothing left to do: set-up already simulated.
func (w *converge) warmup() error { return nil }

func (w *converge) close() error { return nil }
