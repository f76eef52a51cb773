package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"
)

// profileHz is the CPU profile rate of the traced phase, ten times the
// runtime/pprof default so that short runs still collect thousands of
// samples. Raising it makes the runtime print one warning per profile on
// standard error; the higher rate still applies.
const profileHz = 1000

// Shares of --seconds given to each phase of a traced run. The rest goes
// to the reference run and the live-heap repeat.
const (
	untracedShare = 0.35
	tracedShare   = 0.35
	// rungShare is each of the 11 ladder rungs' share.
	rungShare = 0.02
)

// probe accumulates what the traced phase measures around each run.
type probe struct {
	attr         attribution
	work         counts  // registry counters
	windows      float64 // sharded executor windows
	barrierWaits float64
	steals       float64
	simSeconds   float64
	err          error // the first profile that could not be taken or decoded

	// Per-run state between before and after.
	prof       bytes.Buffer
	workBefore counts
	engBefore  [3]float64
	simBefore  time.Duration
}

// engineCounts reads the executor's window, barrier-wait and steal
// counters.
func engineCounts(wd world) [3]float64 {
	e := wd.engine()
	return [3]float64{
		float64(e.Counter("simnet.shard.windows")),
		float64(e.Counter("simnet.shard.barrier_waits")),
		float64(e.Counter("simnet.shard.steals")),
	}
}

// around is the hook runSeries calls around every timed run.
func (p *probe) around(wd world) func() {
	p.workBefore = countsOf(wd.snapshot())
	p.engBefore = engineCounts(wd)
	p.simBefore = wd.simTime()
	p.prof.Reset()
	runtime.SetCPUProfileRate(profileHz)
	startErr := pprof.StartCPUProfile(&p.prof)
	return func() {
		if startErr == nil {
			pprof.StopCPUProfile()
		}
		p.simSeconds += (wd.simTime() - p.simBefore).Seconds()
		eng := engineCounts(wd)
		p.windows += eng[0] - p.engBefore[0]
		p.barrierWaits += eng[1] - p.engBefore[1]
		p.steals += eng[2] - p.engBefore[2]
		p.work = p.work.add(countsOf(wd.snapshot()).sub(p.workBefore))
		prof, err := parseCPUProfile(p.prof.Bytes())
		switch {
		case startErr != nil && p.err == nil:
			p.err = startErr
		case err != nil && p.err == nil:
			p.err = err
		case err == nil:
			p.attr.add(prof)
		}
	}
}

// namedMetric keeps the report order of the per-layer metrics.
type namedMetric struct {
	name string
	metric
}

// tracedRun measures the per-layer metrics: an untraced phase for the
// overhead baseline, a traced phase under the probe, one repeat for the
// live heap, and the ladder.
func tracedRun(w io.Writer, wl scenario, seed int64, lanes int, budget time.Duration, ref repeat) (result, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	plain, err := runSeries(wl, seed, lanes, share(untracedShare), ref, nil, nil)
	if err != nil {
		return result{}, err
	}
	plain.report(w, "untraced")

	p := &probe{attr: attribution{}}
	traced, err := runSeries(wl, seed, lanes, share(tracedShare), ref, nil, p.around)
	if err != nil {
		return result{}, err
	}
	traced.report(w, "traced")
	if p.err != nil {
		return result{}, fmt.Errorf("traced phase: %w", p.err)
	}

	// The live heap is read after a GC while the finished world is still
	// reachable; the registry size comes from the same world.
	_, wd, err := once(wl, seed, lanes, nil)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	liveHeapMB := float64(m.HeapAlloc) / (1 << 20)
	seriesCount := float64(len(wd.snapshot().Entries))
	runtime.KeepAlive(wd)

	lad, err := runLadder(share(rungShare))
	if err != nil {
		return result{}, err
	}

	// Allocation and CPU figures come from the untraced phase, so the
	// profiler's own work does not count.
	var tOps, tFailed, tPayments, pOps, pAllocBytes, pAllocs, pGC float64
	var tCPU, pWall, pCPU time.Duration
	for _, r := range traced.reps {
		tOps += float64(r.out.ops)
		tFailed += float64(r.out.failed)
		tPayments += float64(r.out.payments)
		tCPU += r.cpu
	}
	for _, r := range plain.reps {
		pOps += float64(r.out.ops)
		pWall += r.wall
		pCPU += r.cpu
		pAllocBytes += float64(r.allocBytes)
		pAllocs += float64(r.allocs)
		pGC += float64(r.gcCycles)
	}
	perOp := func(x float64) float64 { return x / tOps }
	work := p.work.scale(1 / tOps)
	perSim := func(x float64) float64 { return x / p.simSeconds }
	untracedOps := plain.medianOpsPerCPU()
	cpuNsPerOp := float64(pCPU.Nanoseconds()) / pOps
	eventsPerRepeat := p.work.events / float64(len(traced.reps))

	var out []namedMetric
	add := func(name, unit string, v float64) { out = append(out, namedMetric{name, metric{v, unit}}) }
	// The profile gives each layer's share of the samples; the traced
	// runs' measured CPU time turns shares into nanoseconds, since the
	// kernel may deliver fewer samples than the requested rate.
	samples := float64(p.attr.total())
	for _, l := range layers {
		add(l+".self_ns_per_op", "ns/op", perOp(float64(p.attr[l])/samples*float64(tCPU.Nanoseconds())))
	}
	add("profile.samples", "count", samples)
	add("simnet.events_per_op", "events/op", work.events)
	add("simnet.host_ns_per_event", "ns/event", float64(pWall.Nanoseconds())/float64(len(plain.reps))/eventsPerRepeat)
	add("simnet.link_drops_per_op", "drops/op", work.linkDrops)
	add("simnet.shard.windows_per_sim_s", "1/sim_s", perSim(p.windows))
	add("simnet.shard.barrier_waits_per_sim_s", "1/sim_s", perSim(p.barrierWaits))
	add("simnet.shard.steals_per_sim_s", "1/sim_s", perSim(p.steals))
	add("simnet.shard.lane_util", "ratio", pCPU.Seconds()/(pWall.Seconds()*float64(lanes)))
	add("mtcp.segments_per_op", "segments/op", work.segments)
	add("mtcp.retransmits_per_op", "segments/op", work.tcpRetransmits)
	add("web.requests_per_op", "requests/op", work.webRequests)
	add("web.bytes_per_op", "B/op", work.webBytes)
	add("imode.requests_per_op", "requests/op", work.imodeRequests)
	add("wap.invokes_per_op", "invokes/op", work.wtpInvokes)
	add("wap.retransmits_per_op", "pdus/op", work.wtpRetransmits)
	add("wap.translations_per_op", "pages/op", work.wmlc)
	add("cellular.delivered_per_op", "frames/op", work.cellDelivered)
	add("cellular.lost_per_op", "frames/op", work.cellLost)
	add("wireless.delivered_per_op", "frames/op", work.wlanDelivered)
	add("wireless.lost_per_op", "frames/op", work.wlanLost)
	add("host.db.commits_per_op", "commits/op", work.dbCommits)
	add("host.db.aborts_per_op", "aborts/op", work.dbAborts)
	add("repl.ships_per_op", "ships/op", work.replShips)
	add("mobiledb.conflicts_per_op", "conflicts/op", work.conflicts)
	add("runtime.alloc_bytes_per_op", "B/op", pAllocBytes/pOps)
	add("runtime.allocs_per_op", "allocs/op", pAllocs/pOps)
	add("runtime.gc_cycles", "cycles/run", pGC/float64(len(plain.reps)))
	add("runtime.live_heap_mb", "MB", liveHeapMB)
	add("metrics.series", "count", seriesCount)
	add("op_fail_ratio", "ratio", tFailed/tOps)
	add("ops_per_host_s", "ops/s", plain.medianOpsPerSec())
	add("trace_overhead", "ratio", traced.medianOpsPerCPU()/untracedOps)
	for _, name := range rungNames {
		unit := "ns"
		if name == rungTxnIMode || name == rungTxnWAP {
			unit = "us"
		}
		add(name, unit, lad[name].ns)
	}
	terms := lad.own().decompose(work, perOp(tPayments))
	explained := 0.0
	for _, t := range terms {
		explained += t.perOp * t.own
	}
	add("unexplained_share", "ratio", 1-explained/cpuNsPerOp)

	fmt.Fprintf(w, "untraced: %d repeats, %.6g ops/cpu-s; traced: %d repeats, %.6g ops/cpu-s, %d profile samples at %d Hz requested\n",
		len(plain.reps), untracedOps, len(traced.reps), traced.medianOpsPerCPU(), p.attr.total(), profileHz)
	fmt.Fprintln(w, "per-layer metrics (per simulated op unless the unit says otherwise):")
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, m := range out {
		printMetric(w, m.name, m.metric, "")
		res.Metrics[m.name] = m.metric
	}
	fmt.Fprintf(w, "decomposition of %.6g host CPU ns/op (untraced) into ladder units:\n", cpuNsPerOp)
	for _, t := range terms {
		fmt.Fprintf(w, "  %-28s %12.4g /op x %10.4g ns = %12.4g ns/op\n", t.what, t.perOp, t.own, t.perOp*t.own)
	}
	fmt.Fprintf(w, "  %-28s %55.4g ns/op\n", "unexplained", cpuNsPerOp-explained)
	plain.tally(&res)
	traced.tally(&res)
	return res, nil
}
