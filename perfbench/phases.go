package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/telemetry"
)

// overcommitSample is how often the loaded workload's substrate is checked
// for overcommitment during the measured phases.
const overcommitSample = 20 * time.Millisecond

// inputs are a workload's generated documents and the benchmark's answer
// for each; they depend only on the seed and are computed once per process,
// outside every timed phase.
type inputs struct {
	docs   []media.Document
	expect []expectation
}

func makeInputs(w workload, seed int64) (inputs, error) {
	docs := catalogFor(w, seed)
	in := inputs{docs: docs, expect: make([]expectation, len(docs))}
	mach := referenceMachine(w)
	u := sectionFiveProfile()
	for i, d := range docs {
		e, err := expect(d, mach, u, cost.DefaultPricing(), !w.idle())
		if err != nil {
			return inputs{}, err
		}
		in.expect[i] = e
	}
	return in, nil
}

// setUp builds, serves, dials and warms a system and reports how long that
// took.
func setUp(ctx context.Context, w workload, seed int64, in inputs, tr *tracer) (*system, time.Duration, error) {
	start := time.Now()
	s, err := build(w, seed, in.docs, in.expect, tr)
	if err != nil {
		return nil, 0, err
	}
	s.warm(ctx)
	return s, time.Since(start), nil
}

// tally sums the callers' sessions and failures and returns the first
// failure seen.
func (s *system) tally() (sessions, failed int, first error) {
	for _, c := range s.callers {
		sessions += c.sessions
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return sessions, failed, first
}

// finish winds a system down, closes it and adds its sessions to the run's
// count; a failed wind-down check counts as one more failed operation.
func (s *system) finish(ctx context.Context, res *result, rep *report) {
	werr := s.windDown(ctx)
	s.close()
	sessions, failed, first := s.tally()
	res.Attempted += sessions
	res.Failed += failed
	if werr != nil {
		res.Failed++
		first = errors.Join(first, werr)
	}
	if first != nil && rep.FirstError == "" {
		rep.FirstError = first.Error()
	}
}

// checkPoint records a failed quiet check as a failed operation.
func (s *system) checkPoint(res *result, rep *report) {
	if err := s.checkQuiet(); err != nil {
		res.Failed++
		if rep.FirstError == "" {
			rep.FirstError = err.Error()
		}
	}
}

// cut is a point of a timed phase: the process counters and how many
// latencies each caller had recorded by then.
type cut struct {
	usage
	marks [callers]int64
}

func (s *system) cutNow() cut {
	c := cut{usage: readUsage()}
	for i, cs := range s.callers {
		c.marks[i] = cs.recorded.Load()
	}
	return c
}

// segment is a measured stretch of a timed phase, between two cuts.
type segment struct {
	before, after usage
	// lat holds the stretch's negotiate latencies, sorted.
	lat []time.Duration
}

// cyclePoll is how often a timed phase looks for a finished collection.
const cyclePoll = 2 * time.Millisecond

// measured runs a timed phase. It starts right after a forced collection,
// runs whole rounds until d has passed and a collection cycle has finished
// after that, and is measured up to that cycle's end: the phase holds whole
// collection cycles, so its figures neither miss nor double the collector's
// share. The rounds in flight at the cut finish unmeasured. On the loaded
// workload it samples the substrate for overcommitment throughout.
func (s *system) measured(ctx context.Context, d time.Duration, res *result, rep *report) segment {
	stop := make(chan struct{})
	type watch struct {
		samples, violations int
		first               error
	}
	watched := make(chan watch, 1)
	if !s.w.idle() {
		go func() {
			var w watch
			w.samples, w.violations, w.first = s.watchOvercommit(overcommitSample, stop)
			watched <- w
		}()
	}
	runtime.GC()
	start := s.cutNow()
	var done atomic.Bool
	end := make(chan cut, 1)
	go func() { end <- s.awaitCycleEnd(start, d, &done) }()
	s.runWhile(ctx, func() bool { return !done.Load() }, true)
	last := <-end
	close(stop)
	g := segment{before: start.usage, after: last.usage}
	for i, c := range s.callers {
		g.lat = append(g.lat, c.lat[start.marks[i]:last.marks[i]]...)
	}
	sortDurations(g.lat)
	if !s.w.idle() {
		w := <-watched
		rep.Details["overcommit_samples"] = w.samples
		if w.violations > 0 {
			res.Failed += w.violations
			if rep.FirstError == "" {
				rep.FirstError = w.first.Error()
			}
		}
	}
	s.checkPoint(res, rep)
	return g
}

// awaitCycleEnd waits until d has passed since start and a collection
// cycle has finished after that, sets done and returns the cut at that
// cycle's end. If no cycle finishes within a further d and a second, it
// cuts there, so a program that stops allocating still ends its phase.
func (s *system) awaitCycleEnd(start cut, d time.Duration, done *atomic.Bool) cut {
	t := time.NewTicker(cyclePoll)
	defer t.Stop()
	deadline := start.at.Add(d)
	giveUp := deadline.Add(d + time.Second)
	seen := start.gcCycles
	for {
		now := <-t.C
		n := gcCycles()
		if (n != seen && now.After(deadline)) || now.After(giveUp) {
			c := s.cutNow()
			done.Store(true)
			return c
		}
		seen = n
	}
}

// recorded gathers what the callers recorded in the timed phase.
func (s *system) recorded() (lat []time.Duration, rpcTime time.Duration, rpcs int) {
	for _, c := range s.callers {
		lat = append(lat, c.lat...)
		rpcTime += c.rpc
		rpcs += c.rpcs
	}
	sortDurations(lat)
	return lat, rpcTime, rpcs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// div divides, reading 0 for an empty base: a layer a future change no
// longer calls reports zero instead of a value JSON cannot carry.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// trialLength is the timed share of one trial. An end-to-end run sets up
// and measures one independent system after the other, one per trialLength
// of the timed phase (at least minTrials). Separate systems spread the
// measurement over the run, so a burst of interference from other tenants
// of the host hits some trials, not the result (each metric is the median
// over the trials), and each system retains only its own share of the
// sessions.
const (
	trialLength = 1600 * time.Millisecond
	minTrials   = 3
)

// trialsFor is how many trials a timed phase of length d is split into.
func trialsFor(d time.Duration) int {
	return max(minTrials, int(d/trialLength))
}

// endToEnd is the untraced run. Each trial sets a system up, runs the
// workload's fixed session count, reads the live heap and runs its share of
// the timed phase. setup_s and heap_live_mb are medians over the trials;
// heap_live_mb is read at a fixed session count, so it does not depend on
// how fast the timed phase runs. The other metrics are medians over the
// trials' timed phases.
func endToEnd(w workload, seed int64, d time.Duration, rep *report) (result, error) {
	ctx := context.Background()
	res := result{Metrics: make(map[string]metric)}
	in, err := makeInputs(w, seed)
	if err != nil {
		return res, err
	}
	var setups, heaps []float64
	var perSec, cpu, allocs, allocKB, p50, p90 []float64
	var lat []time.Duration
	statuses := make(map[string]int)
	trials := trialsFor(d)
	for i := 0; i < trials; i++ {
		// Each trial starts with the previous system's garbage collected.
		runtime.GC()
		s, took, err := setUp(ctx, w, seed, in, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		s.checkPoint(&res, rep)
		s.runCount(ctx, w.heapSessions/callers, false)
		s.checkPoint(&res, rep)
		heaps = append(heaps, float64(liveHeap())/(1<<20))
		g := s.measured(ctx, d/time.Duration(trials), &res, rep)
		all, _, _ := s.recorded()
		lat = append(lat, all...)
		for k, v := range statusCounts(core.Stats{}, s.manager.Stats()) {
			statuses[k] += v
		}
		s.finish(ctx, &res, rep)
		n := float64(len(g.lat))
		if n == 0 {
			return res, errors.New("a timed phase ran no session")
		}
		perSec = append(perSec, n/g.after.at.Sub(g.before.at).Seconds())
		cpu = append(cpu, us(g.after.cpu-g.before.cpu)/n)
		allocs = append(allocs, float64(g.after.allocs-g.before.allocs)/n)
		allocKB = append(allocKB, float64(g.after.allocBytes-g.before.allocBytes)/1024/n)
		p50 = append(p50, us(percentile(g.lat, 0.50)))
		p90 = append(p90, us(percentile(g.lat, 0.90)))
	}
	sortDurations(lat)
	rep.Details["setup_s"] = setups
	rep.Details["heap_live_mb"] = heaps
	rep.Details["timed_sessions"] = len(lat)
	rep.Details["trials"] = map[string][]float64{
		"sessions_per_s": perSec, "cpu_us_per_session": cpu, "negotiate_p50_us": p50, "negotiate_p90_us": p90,
	}
	rep.Details["negotiate_p99_us"] = us(percentile(lat, 0.99))
	rep.Details["negotiate_p99_beyond"] = len(lat) - int(0.99*float64(len(lat)))
	rep.Details["statuses"] = statuses
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["negotiate_p50_us"] = metric{median(p50), "us"}
	res.Metrics["negotiate_p90_us"] = metric{median(p90), "us"}
	res.Metrics["sessions_per_s"] = metric{median(perSec), "1/s"}
	res.Metrics["cpu_us_per_session"] = metric{median(cpu), "us"}
	res.Metrics["allocs_per_session"] = metric{median(allocs), "count"}
	res.Metrics["alloc_kb_per_session"] = metric{median(allocKB), "KiB"}
	res.Metrics["heap_live_mb"] = metric{median(heaps), "MiB"}
	return res, nil
}

// tracedRound is the longest stretch one round of the traced run measures
// for, half on a plain system and half on a traced one. A longer run
// measures rounds of fresh systems one after the other and sums their
// figures, so the sessions each system's table retains stay bounded
// whatever the run length.
const tracedRound = 4 * time.Second

// tracedTotals sums the traced run's figures over its rounds.
type tracedTotals struct {
	t            traceCounts
	stepSum      map[telemetry.Step]float64 // seconds
	stepCount    map[telemetry.Step]uint64
	hits, misses int
	statuses     map[string]int
	retained     float64 // bytes
	mutexWait    float64 // seconds
	gcCPU        float64 // seconds
	// sessions counts the traced systems' measured negotiations and
	// rpcTime is their RPC time; plainSessions and plainRPC are the plain
	// systems'.
	sessions, plainSessions int
	rpcTime, plainRPC       time.Duration
	rpcs                    int
	callerRPC               [callers]time.Duration
	callerRPCs              [callers]int
}

var tracedSteps = map[string]telemetry.Step{
	"core.step_local_us":          telemetry.StepLocalNegotiation,
	"core.step_classification_us": telemetry.StepClassification,
	"core.step_commitment_us":     telemetry.StepCommitment,
}

// traced is the per-layer run. Each round measures a plain system and one
// with every layer decorated (see round); the per-layer metrics come from
// the decorated systems, the tracing overhead from the difference of the
// two.
func traced(w workload, seed int64, d time.Duration, rep *report) (result, error) {
	ctx := context.Background()
	res := result{Metrics: make(map[string]metric)}
	in, err := makeInputs(w, seed)
	if err != nil {
		return res, err
	}
	tot := tracedTotals{
		stepSum:   make(map[telemetry.Step]float64),
		stepCount: make(map[telemetry.Step]uint64),
		statuses:  make(map[string]int),
	}
	rounds := max(1, int(d/tracedRound))
	for i := 0; i < rounds; i++ {
		if err := tot.round(ctx, w, seed, in, d/time.Duration(rounds), i, &res, rep); err != nil {
			return res, err
		}
	}
	if tot.sessions == 0 || tot.rpcs == 0 || tot.plainSessions == 0 {
		return res, errors.New("a measured phase ran no session")
	}

	t := tot.t
	n := float64(tot.sessions)
	perSession := func(d time.Duration) float64 { return us(d) / n }
	var managerTime time.Duration
	for _, c := range t.coreNanos {
		managerTime += c
	}
	var lapSum float64
	for name, step := range tracedSteps {
		v := div(tot.stepSum[step]*1e6, float64(tot.stepCount[step]))
		lapSum += v
		res.Metrics[name] = metric{v, "us"}
	}
	negotiateUS := div(us(t.negotiate.nanos), float64(t.negotiate.calls))

	res.Metrics["protocol.self_us_per_rpc"] = metric{div(us(tot.rpcTime-managerTime), float64(tot.rpcs)), "us"}
	res.Metrics["protocol.bytes_per_session"] = metric{float64(t.bytes) / n, "B"}
	res.Metrics["protocol.writes_per_rpc"] = metric{div(float64(t.writes.calls), float64(tot.rpcs)), "count"}
	res.Metrics["core.negotiate_us"] = metric{negotiateUS, "us"}
	res.Metrics["core.reject_us"] = metric{div(us(t.reject.nanos), float64(t.reject.calls)), "us"}
	res.Metrics["core.self_us_per_negotiation"] = metric{div(us(t.negotiate.nanos-t.negotiationSubstrate()), float64(t.negotiate.calls)), "us"}
	res.Metrics["core.retained_kb_per_session"] = metric{tot.retained / 1024 / n, "KiB"}
	res.Metrics["offercache.hit_ratio"] = metric{div(float64(tot.hits), float64(tot.hits+tot.misses)), "ratio"}
	res.Metrics["offercache.misses_per_session"] = metric{float64(tot.misses) / n, "count"}
	res.Metrics["cmfs.reserve_calls_per_session"] = metric{float64(t.reserve.calls) / n, "count"}
	res.Metrics["cmfs.reserve_failures_per_session"] = metric{float64(t.reserve.failures) / n, "count"}
	res.Metrics["cmfs.us_per_session"] = metric{perSession(t.reserve.nanos + t.release.nanos), "us"}
	res.Metrics["transport.connect_calls_per_session"] = metric{float64(t.connect.calls) / n, "count"}
	res.Metrics["transport.connect_failures_per_session"] = metric{float64(t.connect.failures) / n, "count"}
	res.Metrics["transport.us_per_session"] = metric{perSession(t.connect.nanos + t.close.nanos), "us"}
	res.Metrics["core.useful_reservation_ratio"] = metric{t.usefulReservations(), "ratio"}
	res.Metrics["runtime.mutex_wait_us_per_session"] = metric{tot.mutexWait * 1e6 / n, "us"}
	res.Metrics["runtime.gc_cpu_us_per_session"] = metric{tot.gcCPU * 1e6 / n, "us"}
	res.Metrics["trace.overhead_us_per_session"] = metric{perSession(tot.rpcTime) - us(tot.plainRPC)/float64(tot.plainSessions), "us"}

	protoSelf := make([]float64, callers)
	for i := range protoSelf {
		protoSelf[i] = div(us(tot.callerRPC[i]-t.coreNanos[i]), float64(tot.callerRPCs[i]))
	}
	rep.Details["rounds"] = rounds
	rep.Details["traced_sessions"] = tot.sessions
	rep.Details["untraced_sessions"] = tot.plainSessions
	rep.Details["step_lap_sum_us"] = lapSum
	rep.Details["negotiate_vs_laps"] = div(negotiateUS, lapSum) - 1
	rep.Details["protocol_self_us_per_rpc_by_caller"] = protoSelf
	rep.Details["server_reads"] = t.reads
	rep.Details["negotiations"] = t.negotiate.calls
	rep.Details["rejects"] = t.reject.calls
	rep.Details["kept_streams"] = t.keptStreams
	rep.Details["reserve_calls"] = t.reserve.calls
	rep.Details["connect_calls"] = t.connect.calls
	rep.Details["statuses"] = tot.statuses
	return res, nil
}

// round measures a plain and a traced system for half of d each, one after
// the other, so that only one system is alive at a time. Odd rounds measure
// the traced system first, so a drift over the run (the host's load, the
// process's page faults) falls on both sides of the tracing overhead alike.
func (tot *tracedTotals) round(ctx context.Context, w workload, seed int64, in inputs, d time.Duration, i int, res *result, rep *report) error {
	if i%2 == 1 {
		if err := tot.tracedHalf(ctx, w, seed, in, d/2, res, rep); err != nil {
			return err
		}
	}
	runtime.GC()
	plain, _, err := setUp(ctx, w, seed, in, nil)
	if err != nil {
		return err
	}
	plain.checkPoint(res, rep)
	plain.measured(ctx, d/2, res, rep)
	plainLat, plainRPC, _ := plain.recorded()
	plain.finish(ctx, res, rep)
	tot.plainSessions += len(plainLat)
	tot.plainRPC += plainRPC
	if i%2 == 0 {
		return tot.tracedHalf(ctx, w, seed, in, d/2, res, rep)
	}
	return nil
}

// tracedHalf sets up a system with every layer decorated, measures it for
// d and adds its figures to the totals.
func (tot *tracedTotals) tracedHalf(ctx context.Context, w workload, seed int64, in inputs, d time.Duration, res *result, rep *report) error {
	runtime.GC()
	tr := newTracer(w)
	s, _, err := setUp(ctx, w, seed, in, tr)
	if err != nil {
		return err
	}
	s.checkPoint(res, rep)
	heapBefore := liveHeap()
	t0, reg0, st0 := tr.snapshot(), s.metrics.Snapshot(), s.manager.Stats()
	whole := s.measured(ctx, d, res, rep)
	t1, reg1, st1 := tr.snapshot(), s.metrics.Snapshot(), s.manager.Stats()
	heapAfter := liveHeap()
	lat, rpcTime, rpcs := s.recorded()
	s.finish(ctx, res, rep)

	tot.t = tot.t.add(t1.sub(t0))
	for _, step := range tracedSteps {
		ha, _ := reg0.Find(core.MetricStepTime, step.String())
		if hb, ok := reg1.Find(core.MetricStepTime, step.String()); ok {
			tot.stepSum[step] += hb.Sum - ha.Sum
			tot.stepCount[step] += hb.Count - ha.Count
		}
	}
	tot.hits += st1.OfferCacheHits - st0.OfferCacheHits
	tot.misses += st1.OfferCacheMisses - st0.OfferCacheMisses
	for k, v := range statusCounts(st0, st1) {
		tot.statuses[k] += v
	}
	tot.retained += float64(heapAfter) - float64(heapBefore)
	tot.mutexWait += whole.after.mutexWait - whole.before.mutexWait
	tot.gcCPU += whole.after.gcCPU - whole.before.gcCPU
	tot.sessions += len(lat)
	tot.rpcTime += rpcTime
	tot.rpcs += rpcs
	for i, c := range s.callers {
		tot.callerRPC[i] += c.rpc
		tot.callerRPCs[i] += c.rpcs
	}
	return nil
}

// statusCounts is the negotiation outcomes and capacity failures between
// two snapshots of the manager's counters.
func statusCounts(a, b core.Stats) map[string]int {
	return map[string]int{
		"succeeded":         b.Succeeded - a.Succeeded,
		"failed_with_offer": b.FailedWithOffer - a.FailedWithOffer,
		"failed_try_later":  b.FailedTryLater - a.FailedTryLater,
		"commit_capacity":   b.CommitCapacity - a.CommitCapacity,
	}
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
