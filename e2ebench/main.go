// Command e2ebench is the repository's end-to-end benchmark. One process
// builds one workload through the public constructors (core.BuildMC,
// experiments.BuildScale, experiments.BuildSyncStorm), runs its fixed
// simulated horizon over and over for the requested host time, checks
// every repeat's simulated output against a 1-lane reference, and prints
// its metrics by name with their units. The last line of standard output
// is one JSON object.
//
// Usage:
//
//	e2ebench --workload imode-shop|wap-gprs|scale|sync-storm
//	         [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 it reports the end-to-end metrics (ops_per_cpu_s,
// setup_s, peak_rss_mb). With --trace 1 it splits the time into an
// untraced phase, a phase under a CPU profile with registry, engine and
// allocation counters, and the layer ladder, and reports the per-layer
// metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: imode-shop, wap-gprs, scale or sync-storm")
	seed := fs.Int64("seed", 1, "simulation seed; the same seed gives the same inputs and outputs")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := scenarioByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be > 0 and --trace 0 or 1")
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// A single-partition simulation is one goroutine, so it gets one P:
	// idle Ps would only spin and add noise to the CPU time measured.
	lanes := 1
	if wl.sharded {
		lanes = runtime.NumCPU()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lanes))
	fmt.Fprintf(stdout, "e2ebench: workload=%s seed=%d lanes=%d seconds=%g trace=%d\n", wl.name, *seed, lanes, *seconds, *traced)

	// The reference run on one lane fixes the digest every timed repeat
	// must reproduce; it also warms the process up.
	ref, _, err := once(wl, *seed, 1, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reference (1 lane): %s digest=%016x\n", ref.out.summary, ref.out.digest)

	var res result
	if *traced == 1 {
		res, err = tracedRun(stdout, wl, *seed, lanes, budget, ref)
	} else {
		res, err = plainRun(stdout, wl, *seed, lanes, budget, ref)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// repeat is one build-and-run of a workload.
type repeat struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time during the run
	peakMB float64       // peak resident memory during the run (memSampler)
	// Allocation during the run, from runtime.MemStats.
	allocBytes, allocs, gcCycles uint64
	out                          outcome
	// checkErr is the output check's verdict against the reference.
	checkErr error
}

// opsPerSec is the repeat's simulated operations per wall second.
func (r repeat) opsPerSec() float64 { return float64(r.out.ops) / r.wall.Seconds() }

// opsPerCPU is the repeat's simulated operations per second of process
// CPU time, which unlike wall time does not count time the host's
// hypervisor or neighbours take the CPU away.
func (r repeat) opsPerCPU() float64 { return float64(r.out.ops) / r.cpu.Seconds() }

// once builds the workload and runs it, timing the run. around, when
// not nil, is called just before the run with the built world and
// returns a function called just after it; neither call is timed.
// Each repeat starts from a collected heap with free memory returned to
// the OS, so its peak memory does not inherit what an earlier repeat
// left mapped.
func once(wl scenario, seed int64, lanes int, around func(world) func()) (repeat, world, error) {
	var r repeat
	debug.FreeOSMemory()
	w, err := wl.build(seed, lanes)
	if err != nil {
		return repeat{}, nil, fmt.Errorf("%s: build: %w", wl.name, err)
	}
	var after func()
	if around != nil {
		after = around(w)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := startMemSampler()
	c0 := cpuTime()
	t1 := time.Now()
	err = w.run()
	r.wall = time.Since(t1)
	r.cpu = cpuTime() - c0
	r.peakMB = mem.finish()
	if after != nil {
		after()
	}
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.allocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = uint64(m1.NumGC - m0.NumGC)
	if err != nil {
		return repeat{}, nil, fmt.Errorf("%s: run: %w", wl.name, err)
	}
	r.out = w.outcome()
	return r, w, nil
}

// series is the repeats of one phase, each checked against the
// reference digest.
type series struct{ reps []repeat }

const minRepeats = 3

// runSeries runs repeats until budget has passed, and at least
// minRepeats of them. before, when not nil, runs before each repeat;
// around is passed to once.
func runSeries(wl scenario, seed int64, lanes int, budget time.Duration, ref repeat, before func() error, around func(world) func()) (*series, error) {
	s := &series{}
	start := time.Now()
	for len(s.reps) < minRepeats || time.Since(start) < budget {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		r, _, err := once(wl, seed, lanes, around)
		if err != nil {
			return nil, err
		}
		r.checkErr = check(r.out, ref.out)
		s.reps = append(s.reps, r)
	}
	return s, nil
}

// check is the output check of one repeat.
func check(got, ref outcome) error {
	if got.err != nil {
		return got.err
	}
	if got.digest != ref.digest {
		return fmt.Errorf("digest %016x differs from the 1-lane reference %016x (%s vs %s)",
			got.digest, ref.digest, got.summary, ref.summary)
	}
	return nil
}

// tally adds the series to the result: every repeat's ops count as
// attempted, and a repeat whose check failed counts all its ops as failed
// and makes the result incorrect.
func (s *series) tally(res *result) {
	for _, r := range s.reps {
		res.Attempted += r.out.ops
		if r.checkErr != nil {
			res.Failed += r.out.ops
			res.Correct = false
		}
	}
}

// report prints the series' check line.
func (s *series) report(w io.Writer, what string) {
	bad := 0
	var first error
	for _, r := range s.reps {
		if r.checkErr != nil {
			if bad == 0 {
				first = r.checkErr
			}
			bad++
		}
	}
	if bad == 0 {
		fmt.Fprintf(w, "check %s: %d/%d repeats match the 1-lane reference digest and pass the output checks\n",
			what, len(s.reps), len(s.reps))
		return
	}
	fmt.Fprintf(w, "check %s: FAILED in %d/%d repeats: %v\n", what, bad, len(s.reps), first)
}

// opFailRatio is failed plus timed-out simulated ops over attempted ops;
// a repeat whose check failed counts all its ops as failed.
func (s *series) opFailRatio() float64 {
	var att, failed uint64
	for _, r := range s.reps {
		att += r.out.ops
		if r.checkErr != nil {
			failed += r.out.ops
		} else {
			failed += r.out.failed
		}
	}
	return float64(failed) / float64(att)
}

func (s *series) medianOpsPerSec() float64 {
	return median(collect(s.reps, repeat.opsPerSec))
}

func (s *series) medianOpsPerCPU() float64 {
	return median(collect(s.reps, repeat.opsPerCPU))
}

func (s *series) medianPeakMB() float64 {
	return median(collect(s.reps, func(r repeat) float64 { return r.peakMB }))
}

// setupTimer times builds of the workload in batches of about
// setupBatch of CPU time, after a GC each, so that a batch also pays for
// the GC its garbage causes. Builds are single-threaded, and CPU time
// leaves out what the host's neighbours take.
type setupTimer struct {
	wl    scenario
	seed  int64
	lanes int
	n     int       // builds per batch
	per   []float64 // seconds per build, one entry per batch
}

const (
	setupBatch      = 60 * time.Millisecond
	minSetupBatches = 9
)

// batch times one batch of builds.
func (t *setupTimer) batch() error {
	build := func(n int) (time.Duration, error) {
		runtime.GC()
		c0 := cpuTime()
		for i := 0; i < n; i++ {
			if _, err := t.wl.build(t.seed, t.lanes); err != nil {
				return 0, fmt.Errorf("%s: build: %w", t.wl.name, err)
			}
		}
		return cpuTime() - c0, nil
	}
	if t.n == 0 {
		first, err := build(1)
		if err != nil {
			return err
		}
		t.n = max(1, int(setupBatch/max(first, time.Microsecond)))
	}
	d, err := build(t.n)
	if err != nil {
		return err
	}
	t.per = append(t.per, d.Seconds()/float64(t.n))
	return nil
}

// plainRun measures the end-to-end metrics with no tracing. One set-up
// batch runs before every repeat, so set-up is sampled across the whole
// run, like throughput.
func plainRun(w io.Writer, wl scenario, seed int64, lanes int, budget time.Duration, ref repeat) (result, error) {
	setup := &setupTimer{wl: wl, seed: seed, lanes: lanes}
	s, err := runSeries(wl, seed, lanes, budget, ref, setup.batch, nil)
	if err != nil {
		return result{}, err
	}
	for len(setup.per) < minSetupBatches {
		if err := setup.batch(); err != nil {
			return result{}, err
		}
	}
	s.report(w, "timed")
	res := result{Correct: true, Metrics: map[string]metric{
		"ops_per_cpu_s": {s.medianOpsPerCPU(), "ops/s"},
		"setup_s":       {median(setup.per), "s"},
		"peak_rss_mb":   {s.medianPeakMB(), "MB"},
	}}
	s.tally(&res)
	fmt.Fprintf(w, "repeats: %d, %d simulated ops each; set-up batches: %d of %d builds; medians:\n",
		len(s.reps), ref.out.ops, len(setup.per), setup.n)
	printMetric(w, "ops_per_cpu_s", res.Metrics["ops_per_cpu_s"], "higher is better; per second of process CPU time")
	printMetric(w, "setup_s", res.Metrics["setup_s"], "lower is better")
	printMetric(w, "peak_rss_mb", res.Metrics["peak_rss_mb"], "lower is better")
	fmt.Fprintln(w, "not bounded (wall clock, or deterministic per seed):")
	printMetric(w, "ops_per_host_s", metric{s.medianOpsPerSec(), "ops/s"}, "higher is better; per wall second")
	printMetric(w, "op_fail_ratio", metric{s.opFailRatio(), "ratio"}, "lower is better")
	printMetric(w, "process_maxrss_mb", metric{processMaxRSSMB(), "MB"}, "lower is better; whole process, reference run included")
	return res, nil
}

func printMetric(w io.Writer, name string, m metric, note string) {
	fmt.Fprintf(w, "  %-36s %14.6g %-10s %s\n", name, m.Value, m.Unit, note)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processMaxRSSMB is the process's peak resident set size in MiB.
func processMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func collect(reps []repeat, f func(repeat) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
