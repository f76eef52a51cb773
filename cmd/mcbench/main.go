// Command mcbench regenerates the paper's figures and tables from the
// running system.
//
// Usage:
//
//	mcbench [-exp all|fig1|fig2|table1|table2|table3|table4|table5|tcp|mip|ablate]
//	        [-seed N] [-format text|csv] [-parallel N] [-metrics] [-shards N]
//	        [-timeline out.json] [-timeline-interval D]
//	        [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// -seed, -shards, -cc, -metrics, -timeline, -timeline-interval and the
// profile flags are the experiments.Options mcsim and mcload share; the
// options reach the experiments as an argument (experiments.RegistryTasks),
// not through package state.
//
// -shards N sets the worker-lane count the sharded "scale" experiment
// executes on. Results are byte-identical at any value — lanes change
// which goroutines run the windows, never what the windows compute. The
// profile flags write pprof CPU/heap/mutex profiles of the invocation,
// the tool for diagnosing shard contention.
//
// With -metrics, experiments that attach telemetry snapshots (chaos, for
// one) additionally print one table per attached snapshot: every registry
// metric's value over that run, in the selected -format.
//
// With -timeline FILE, the experiments that sample telemetry on the
// simulation clock (chaos, syncstorm, tcp's faulted section) export one
// time-series JSON per run next to FILE, tagged with the experiment and
// mode ("out.json" -> "out.chaos-faults-resilient.json", ...), including
// fault annotations and the SLO violation intervals their tables report.
// -timeline-interval sets the sampling interval (default 250ms).
//
// The chaos experiment traces every transaction and emits an extra
// E-CHAOS-CRITPATH table attributing critical-path latency to layers
// (station, wireless, middleware, wired, host, transport) per mode, so
// the resilient-vs-fragile latency deltas can be read as "where the time
// went" rather than a single end-to-end number.
//
// Each experiment prints an aligned table plus notes; EXPERIMENTS.md
// records a reference run and compares it with the paper.
//
// Independent experiments run concurrently on up to -parallel workers
// (default GOMAXPROCS; 1 forces a serial run). Every experiment builds its
// own simulation world, so the output is byte-identical at any
// parallelism: results are printed in experiment order regardless of
// which worker finished first.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"mcommerce/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

// cli is mcbench's command line: the shared options plus the
// experiment selection and output shape.
type cli struct {
	opts        experiments.Options
	exp, format string
	parallel    int
}

func newFlagSet() (*flag.FlagSet, *cli) {
	c := &cli{}
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	c.opts.AddFlags(fs, experiments.ExperimentTimelineInterval)
	fs.StringVar(&c.exp, "exp", "all", "experiment to run: all, "+strings.Join(experiments.Names(), ", "))
	fs.StringVar(&c.format, "format", "text", "output format: text or csv")
	fs.IntVar(&c.parallel, "parallel", 0, "max concurrent experiments (0 = GOMAXPROCS, 1 = serial)")
	return fs, c
}

func run(args []string) error {
	fs, c := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.format != "text" && c.format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", c.format)
	}
	if err := c.opts.Check(); err != nil {
		return err
	}
	names := experiments.Names()
	if c.exp != "all" {
		if !slices.Contains(names, c.exp) {
			return fmt.Errorf("unknown experiment %q (want all, %s)", c.exp, strings.Join(names, ", "))
		}
		names = []string{c.exp}
	}
	if err := c.opts.Profiles.Start(); err != nil {
		return err
	}
	defer c.opts.Profiles.Stop()

	for _, results := range experiments.RunTasks(experiments.RegistryTasks(names, c.opts.Seed, c.opts), c.parallel) {
		for _, res := range results {
			all := []*experiments.Result{res}
			if c.opts.Metrics {
				all = append(all, res.MetricsTables()...)
			}
			for _, r := range all {
				if c.format == "csv" {
					if err := r.WriteCSV(os.Stdout); err != nil {
						return err
					}
					fmt.Println()
					continue
				}
				fmt.Println(r.String())
			}
		}
	}
	return nil
}
