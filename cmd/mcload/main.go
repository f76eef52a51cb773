// Command mcload runs the synthetic mobile commerce workload against a
// freshly built six-component system and prints the capacity report:
// throughput, per-operation latency percentiles and failures.
//
// Usage:
//
//	mcload [-bearer wlan|cellular] [-wlan 802.11b|...] [-cell gprs|...]
//	       [-users N] [-duration 2m] [-think 2s] [-seed N]
//	       [-trace out.json] [-trace-sample N]
//	       [-scale] [-gateways G] [-cells C] [-stations S] [-remote M]
//	       [-shards N] [-metrics]
//	       [-timeline out.json] [-timeline-interval D] [-slo default|FILE]
//	       [-engine-timeline out.json]
//	       [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// The flags mcload shares with mcsim and mcbench (-seed, -shards, -cc,
// -metrics, -timeline, -timeline-interval, the profile flags, and with
// mcsim -bearer, -wlan, -cell, -trace, -trace-sample and -slo) are one
// experiments.Options, registered, checked and finished in one place, so
// every tier honours them: -metrics dumps the run's registry and -trace
// exports its spans on the full-fidelity, -scale and -sync tiers alike.
// The tier sizes -gateways, -cells, -stations, -devices and -replicas
// must be at least 1, -remote in 1..1000 and -duration positive; a bad
// value fails the run with the flag's name.
//
// With -trace FILE, every sampled operation becomes a causal span tree and
// the run ends by writing a Chrome trace-event (Perfetto) JSON file plus a
// per-layer critical-path attribution table. -trace-sample N keeps every
// Nth operation (deterministic 1-in-N sampling by trace ID) — the right
// tool at load-test scale, where tracing every operation would be noise.
//
// With -scale, mcload switches from the full-fidelity deployment to the
// sharded scale tier: -gateways clusters of -cells cell aggregators
// carrying -stations virtual stations each (workload.Flows), partitioned
// along the inter-cluster backbone and executed as one conservative
// parallel discrete-event simulation. -shards N sets the worker-lane
// count; the report, -metrics dump and -trace export are byte-identical
// at any value (wall-clock goes to stderr, never stdout). -remote M
// sends M per mille of every cell's stations to the next cluster's host,
// keeping the cross-shard backbone loaded. Engine internals (window,
// synchronization and steal counters) go to stderr.
//
// With -sync, mcload runs the replicated data tier storm instead:
// -gateways clusters each carry a primary plus -replicas replica members
// (log-shipping replication with quorum acks and lease failover) and
// -cells cells of -devices virtual disconnected devices
// (workload.SyncFlows) writing tentatively and syncing under the chaos
// plan. -policy picks the server conflict rule; -fragile makes devices
// roll back tentative writes on timeout — the lost-update baseline.
// Stdout (totals, lost-update count, convergence, state digest) and the
// -trace export are byte-identical at any -shards value, which verify.sh
// checks. The storm carries no TCP, so -cc does not change it.
//
// With -timeline FILE, every metric in the run's registry is sampled on
// the simulation clock at -timeline-interval and exported as
// deterministic time-series JSON (see internal/obs); on the sharded
// tiers every shard's registry is sampled, prefixed s0., s1., ..., and
// the file is byte-identical at any -shards value. -slo evaluates SLO
// rules over the sampled series and prints the violation intervals:
// "default" picks the built-in rule set matching the selected tier
// (full-fidelity, -scale or -sync); any other value is a built-in set
// name or a JSON rule file. With -scale, -engine-timeline FILE
// additionally samples the executor's per-shard scheduling counters
// (windows, barrier waits, steals) — a
// diagnostic that, unlike everything else, legitimately varies with
// worker count.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/experiments"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/obs"
	"mcommerce/internal/simnet"
	"mcommerce/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		os.Exit(1)
	}
}

// cli is mcload's command line: the shared options plus the flags of
// its three tiers.
type cli struct {
	opts                      experiments.Options
	users                     int
	duration, think           time.Duration
	scale, sync               bool
	devices, replicas         int
	policy                    string
	fragile, noChaos          bool
	writeMean, syncMean       time.Duration
	gateways, cells, stations int
	remote                    int
	engineTimeline            string
}

func newFlagSet() (*flag.FlagSet, *cli) {
	c := &cli{}
	fs := flag.NewFlagSet("mcload", flag.ContinueOnError)
	c.opts.AddFlags(fs, 100*time.Millisecond)
	c.opts.AddStationFlags(fs)
	fs.IntVar(&c.users, "users", 10, "virtual user population")
	fs.DurationVar(&c.duration, "duration", 2*time.Minute, "virtual run duration")
	fs.DurationVar(&c.think, "think", 2*time.Second, "mean think time between operations")
	fs.BoolVar(&c.scale, "scale", false, "run the sharded scale tier (virtual stations on cell aggregators) instead of the full-fidelity deployment")
	fs.BoolVar(&c.sync, "sync", false, "run the replicated data tier storm: virtual disconnected devices syncing to per-cluster replica groups under the chaos plan")
	fs.IntVar(&c.devices, "devices", 100, "with -sync, virtual devices per cell")
	fs.IntVar(&c.replicas, "replicas", 2, "with -sync, replica nodes beside each cluster's primary")
	fs.StringVar(&c.policy, "policy", "lww", "with -sync, server conflict policy: lww, server-wins, merge, fragile")
	fs.BoolVar(&c.fragile, "fragile", false, "with -sync, devices roll back tentative writes on timeout (the lost-update baseline)")
	fs.BoolVar(&c.noChaos, "no-chaos", false, "with -sync, skip the per-cluster fault plan")
	fs.DurationVar(&c.writeMean, "write-mean", 2*time.Second, "with -sync, mean gap between a device's disconnected writes")
	fs.DurationVar(&c.syncMean, "sync-mean", 4*time.Second, "with -sync, mean gap between a device's sync attempts")
	fs.IntVar(&c.gateways, "gateways", 4, "with -scale or -sync, number of gateway clusters")
	fs.IntVar(&c.cells, "cells", 2, "with -scale or -sync, cells per cluster")
	fs.IntVar(&c.stations, "stations", 50, "with -scale, virtual stations per cell")
	fs.IntVar(&c.remote, "remote", 200, "with -scale or -sync, per mille (1..1000) of each cell's stations or devices that target the next cluster")
	fs.StringVar(&c.engineTimeline, "engine-timeline", "", "with -scale, write the executor's per-shard scheduling counters as time-series JSON (varies with -shards by design)")
	return fs, c
}

func run(args []string, w io.Writer) error {
	fs, c := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.opts.Check(); err != nil {
		return err
	}
	// The tier configs replace a zero or negative size with their
	// default, so a bad value must be rejected here, not run silently.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"gateways", c.gateways}, {"cells", c.cells}, {"stations", c.stations},
		{"devices", c.devices}, {"replicas", c.replicas},
	} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be >= 1, got %d", f.name, f.v)
		}
	}
	if c.remote < 1 || c.remote > 1000 {
		return fmt.Errorf("-remote must be in 1..1000, got %d", c.remote)
	}
	if c.duration <= 0 {
		return fmt.Errorf("-duration must be > 0, got %v", c.duration)
	}
	if c.engineTimeline != "" && !c.scale {
		return fmt.Errorf("-engine-timeline requires -scale (only the sharded executor has engine counters to sample)")
	}
	if err := c.opts.Profiles.Start(); err != nil {
		return err
	}
	defer c.opts.Profiles.Stop()
	switch {
	case c.sync:
		return runSync(c, w)
	case c.scale:
		return runScale(c, w)
	}

	o := &c.opts
	cfg := o.MCConfig(o.Seed)
	profiles := device.Profiles()
	for i := 0; i < c.users; i++ {
		cfg.Devices = append(cfg.Devices, profiles[i%len(profiles)])
	}
	mc, err := core.BuildMC(cfg)
	if err != nil {
		return err
	}
	world := simnet.WrapNetwork(mc.Net)
	tl := o.Instrument(world)
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return err
	}
	runner, err := workload.NewRunner(mc, workload.Config{
		Users: c.users, ThinkMean: c.think, Duration: c.duration,
	})
	if err != nil {
		return err
	}
	report, err := runner.Run()
	if err != nil {
		return err
	}
	bearerName := "WLAN " + cfg.WLANStandard.Name
	if cfg.Bearer == core.BearerCellular {
		bearerName = "cellular " + cfg.CellStandard.Name
	}
	fmt.Fprintf(w, "bearer: %s\n", bearerName)
	fmt.Fprint(w, report.String())
	return o.Finish(w, world, tl, experiments.Tier{SLO: "default", Sampled: "operations"})
}

// runScale builds and runs the sharded scale world. Everything written
// to w (and the trace file) is deterministic per seed and invariant to
// -shards; wall-clock goes to stderr only, so two runs at different
// worker counts stay byte-comparable.
func runScale(c *cli, w io.Writer) error {
	o := &c.opts
	sw, err := experiments.BuildScale(experiments.ScaleConfig{
		Seed:            o.Seed,
		Gateways:        c.gateways,
		CellsPerGateway: c.cells,
		StationsPerCell: c.stations,
		RemotePerMille:  c.remote,
		ThinkMean:       c.think,
		Duration:        c.duration,
		Workers:         o.Shards,
	})
	if err != nil {
		return err
	}
	tl := o.Instrument(sw.World)
	if c.engineTimeline != "" {
		sw.World.EnableEngineTimeline(o.TimelineInterval)
	}
	start := time.Now()
	rep, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wall: %v (%d worker lanes)\n", time.Since(start).Round(time.Millisecond), o.Shards)
	// Engine internals vary with worker count, so they go to stderr:
	// stdout stays byte-comparable across lane counts.
	fmt.Fprintln(os.Stderr, "engine internals:")
	sw.World.EngineSnapshot().WriteText(os.Stderr)

	fmt.Fprintf(w, "scale: %d clusters x %d cells x %d stations = %d virtual stations\n",
		c.gateways, c.cells, c.stations, rep.Stations)
	fmt.Fprintf(w, "shards: %d, lookahead %v\n", rep.Shards, sw.World.Lookahead())
	for k, cl := range rep.Clusters {
		fmt.Fprintf(w, "cluster %d: ops=%d timeouts=%d served=%d\n", k, cl.Ops, cl.Timeouts, cl.Served)
	}
	fmt.Fprintf(w, "total: ops=%d timeouts=%d events=%d now=%v\n",
		rep.Ops, rep.Timeouts, rep.Executed, sw.World.Now())
	if err := o.Finish(w, sw.World, tl, experiments.Tier{SLO: "scale", Sampled: "operations"}); err != nil {
		return err
	}
	if c.engineTimeline == "" {
		return nil
	}
	// A diagnostic in a file: the counters vary with -shards, so unlike
	// everything on stdout it is not byte-comparable across worker counts.
	return experiments.WriteFile(c.engineTimeline, func(f io.Writer) error {
		return obs.WriteEngineJSON(f, sw.World, o.TimelineInterval)
	})
}

// runSync builds and runs the replicated data tier storm. Stdout is
// deterministic per seed and invariant to -shards (the verify script
// compares serial and sharded runs byte for byte); wall-clock and engine
// internals go to stderr.
func runSync(c *cli, w io.Writer) error {
	o := &c.opts
	pol, err := mobiledb.ParsePolicy(c.policy)
	if err != nil {
		return err
	}
	sw, err := experiments.BuildSyncStorm(experiments.SyncStormConfig{
		Seed:            o.Seed,
		Gateways:        c.gateways,
		CellsPerGateway: c.cells,
		DevicesPerCell:  c.devices,
		Replicas:        c.replicas,
		RemotePerMille:  c.remote,
		Policy:          pol,
		Fragile:         c.fragile,
		NoChaos:         c.noChaos,
		WriteMean:       c.writeMean,
		SyncMean:        c.syncMean,
		Duration:        c.duration,
		Workers:         o.Shards,
	})
	if err != nil {
		return err
	}
	tl := o.Instrument(sw.World)
	start := time.Now()
	rep, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wall: %v (%d worker lanes)\n", time.Since(start).Round(time.Millisecond), o.Shards)
	if tl != nil {
		for _, in := range sw.Injectors {
			tl.IngestFaults(in)
		}
	}

	fmt.Fprintf(w, "syncstorm: %d clusters x %d cells x %d devices = %d devices, %d-way replication, policy %s\n",
		c.gateways, c.cells, c.devices, rep.Devices, c.replicas+1, pol)
	fmt.Fprintf(w, "writes=%d syncs=%d confirmed=%d overridden=%d\n",
		rep.Writes, rep.Syncs, rep.Confirmed, rep.Overridden)
	fmt.Fprintf(w, "conflicts=%d merges=%d duplicates=%d timeouts=%d redirects=%d faults=%d\n",
		rep.Conflicts, rep.Merges, rep.Duplicates, rep.Timeouts, rep.Redirects, rep.Faults)
	fmt.Fprintf(w, "lost=%d (device rollbacks %d + blind overwrites %d)\n",
		rep.Lost(), rep.LostDevice, rep.BlindOverwrites)
	if rep.Converged {
		fmt.Fprintf(w, "converged: yes, %v after the horizon\n", rep.ConvergeAfter)
	} else {
		fmt.Fprintln(w, "converged: NO within the grace window")
	}
	h := fnv.New64a()
	io.WriteString(h, sw.Digest())
	fmt.Fprintf(w, "digest: %016x\n", h.Sum64())
	return o.Finish(w, sw.World, tl, experiments.Tier{SLO: "syncstorm", Sampled: "operations"})
}
