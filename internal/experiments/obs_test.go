package experiments

import (
	"bytes"
	"testing"
	"time"

	"mcommerce/internal/faults"
	"mcommerce/internal/obs"
)

// scaleTimelineJSON builds a fixed scale topology, samples it at the
// given interval while it runs on the given worker-lane count, and
// returns the exported timeline JSON.
func scaleTimelineJSON(t *testing.T, workers int, interval time.Duration) []byte {
	t.Helper()
	sw, err := BuildScale(ScaleConfig{
		Seed:            11,
		Gateways:        4,
		CellsPerGateway: 2,
		StationsPerCell: 10,
		RemotePerMille:  200,
		ThinkMean:       2 * time.Second,
		Duration:        20 * time.Second,
		Workers:         workers,
	})
	if err != nil {
		t.Fatalf("BuildScale: %v", err)
	}
	tl := obs.NewTimeline(interval)
	tl.AttachSharded(sw.World)
	if _, err := sw.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	slo := obs.Evaluate(tl, obs.DefaultRules("scale"))
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, tl, slo); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// The tentpole determinism pin: the exported timeline (sampled series,
// annotations and SLO verdicts) is byte-identical however many worker
// lanes execute the sharded world.
func TestScaleTimelineWorkerLaneInvariant(t *testing.T) {
	base := scaleTimelineJSON(t, 1, 100*time.Millisecond)
	if len(base) == 0 {
		t.Fatal("empty timeline export")
	}
	for _, workers := range []int{4, 8} {
		got := scaleTimelineJSON(t, workers, 100*time.Millisecond)
		if !bytes.Equal(base, got) {
			t.Fatalf("timeline JSON differs between 1 and %d worker lanes (%d vs %d bytes)",
				workers, len(base), len(got))
		}
	}
}

// Sampling density is a free parameter: the world must produce an export
// at any interval, with the sample count scaling inversely and every run
// at the same interval byte-identical.
func TestScaleTimelineIntervalSweep(t *testing.T) {
	intervals := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	sizes := make([]int, len(intervals))
	for i, d := range intervals {
		a := scaleTimelineJSON(t, 2, d)
		b := scaleTimelineJSON(t, 2, d)
		if !bytes.Equal(a, b) {
			t.Fatalf("interval %v: repeated run not byte-identical", d)
		}
		sizes[i] = len(a)
	}
	// Finer sampling must strictly grow the export: 2000 windows at 10ms,
	// 200 at 100ms, 20 at 1s over the 20s horizon.
	for i := 1; i < len(intervals); i++ {
		if sizes[i-1] <= sizes[i] {
			t.Fatalf("interval %v export (%d bytes) not larger than %v export (%d bytes)",
				intervals[i-1], sizes[i-1], intervals[i], sizes[i])
		}
	}
}

// The acceptance pin for -slo: under the default chaos plan the SLO
// engine fires at least once in the resilient faulted mode, every firing
// interval overlaps an injected fault window (with slack for retry
// backoff draining after the heal), and the no-fault run stays silent.
func TestChaosSLOFiringsAlignWithFaultWindows(t *testing.T) {
	quiet, err := chaosRun(1, &Options{}, 5, 12, chaosMode{"no faults, resilient", false, true})
	if err != nil {
		t.Fatalf("chaosRun(no faults): %v", err)
	}
	if len(quiet.slo) != 0 {
		t.Fatalf("no-fault run produced %d SLO violations, want 0: %+v", len(quiet.slo), quiet.slo)
	}

	rep, err := chaosRun(1, &Options{}, 5, 12, chaosMode{"faults, resilient", true, true})
	if err != nil {
		t.Fatalf("chaosRun(faults): %v", err)
	}
	if len(rep.slo) == 0 {
		t.Fatal("faulted resilient run produced no SLO violations, want at least one")
	}
	if len(rep.faultEvents) == 0 {
		t.Fatal("faulted run recorded no fault events")
	}

	// Fault windows, expanded: a violation may trail the heal while the
	// backlog of retrying transactions drains (app backoff caps at 8s,
	// WTP at 12s), and the latency rule's 5s window looks backwards.
	const slack = 15 * time.Second
	type faultKey struct {
		kind   faults.Kind
		target string
	}
	type window struct{ lo, hi time.Duration }
	open := map[faultKey]time.Duration{}
	var windows []window
	for _, ev := range rep.faultEvents {
		key := faultKey{ev.Kind, ev.Target}
		switch ev.Phase {
		case faults.PhaseApply:
			open[key] = ev.At
		case faults.PhaseHeal:
			start, ok := open[key]
			if !ok {
				start = ev.At
			}
			delete(open, key)
			windows = append(windows, window{lo: start, hi: ev.At + slack})
		}
	}
	for _, start := range open {
		windows = append(windows, window{lo: start, hi: start + slack})
	}
	if len(windows) == 0 {
		t.Fatal("no fault windows derived from the event feed")
	}
	for _, iv := range rep.slo {
		overlaps := false
		for _, w := range windows {
			if iv.Start <= w.hi && iv.End >= w.lo {
				overlaps = true
				break
			}
		}
		if !overlaps {
			t.Errorf("SLO interval %s %s [%s, %s] overlaps no injected fault window (+%s slack)",
				iv.Rule, iv.Series, iv.Start, iv.End, slack)
		}
	}

	// Determinism of the verdicts themselves: same seed, same intervals.
	again, err := chaosRun(1, &Options{}, 5, 12, chaosMode{"faults, resilient", true, true})
	if err != nil {
		t.Fatalf("chaosRun(faults) rerun: %v", err)
	}
	if len(again.slo) != len(rep.slo) {
		t.Fatalf("rerun produced %d violations, first run %d", len(again.slo), len(rep.slo))
	}
	for i := range rep.slo {
		if rep.slo[i] != again.slo[i] {
			t.Fatalf("violation %d differs across reruns: %+v vs %+v", i, rep.slo[i], again.slo[i])
		}
	}
}

// benchScaleWorld runs a fixed scale topology once, optionally sampled
// by a timeline, and returns the executed-event count.
func benchScaleWorld(b *testing.B, sampled bool) uint64 {
	b.Helper()
	// Dense on purpose: sampling cost is fixed per tick (~300 ticks over
	// the horizon), so the relative overhead is only meaningful against a
	// world with realistic event density. On sparse worlds the comparison
	// mostly measures how the extra timer events perturb the scheduler's
	// arena/heap layout — deterministic but erratic, swamping the
	// sampler's own ~50ns-per-world cost.
	sw, err := BuildScale(ScaleConfig{
		Seed:            5,
		Gateways:        4,
		CellsPerGateway: 2,
		StationsPerCell: 100,
		RemotePerMille:  200,
		ThinkMean:       100 * time.Millisecond,
		Duration:        30 * time.Second,
		Workers:         2,
	})
	if err != nil {
		b.Fatalf("BuildScale: %v", err)
	}
	if sampled {
		tl := obs.NewTimeline(100 * time.Millisecond)
		tl.AttachSharded(sw.World)
	}
	if _, err := sw.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
	return sw.World.Executed()
}

// BenchmarkScaleSamplerOverhead measures what attaching a 100ms
// timeline costs the sharded scale tier in aggregate event throughput.
// bench.sh records both rates in the trajectory point; the off/on delta
// is the sampler's overhead (target: within 5%).
func BenchmarkScaleSamplerOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		sampled bool
	}{{"timeline_off", false}, {"timeline_on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events += benchScaleWorld(b, mode.sampled)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events_per_sec")
		})
	}
}
