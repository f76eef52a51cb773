package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/obs"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/wireless"
)

// ExperimentTimelineInterval is the sampling interval mcbench and the
// zero Options use. 250ms resolves the default chaos plan's shortest
// outage (1.5s) into six samples while keeping a 4-minute run under a
// thousand windows.
const ExperimentTimelineInterval = 250 * time.Millisecond

// Options is the run-option surface mcsim, mcload and mcbench share:
// every flag the three CLIs have in common is registered, checked and
// applied here, and each CLI adds only its own tier flags. The
// experiments read their options from it too, so the zero Options runs
// them as mcbench does with no flags (Reno, one worker lane, no
// timeline export).
type Options struct {
	Seed int64
	// Shards is the worker-lane count of the sharded executor. Output is
	// byte-identical at any value.
	Shards int
	// CC is the TCP congestion control of every endpoint that does not
	// pick its own; Check normalizes it ("" means Reno).
	CC      string
	Metrics bool
	// Timeline is the -timeline export path. The experiments write one
	// file per run next to it, tagged ("out.json" →
	// "out.chaos-faults-resilient.json").
	Timeline         string
	TimelineInterval time.Duration
	Profiles         Profiles

	// Registered only by AddStationFlags (mcsim and mcload).
	Trace       string
	TraceSample int
	SLO         string
	// Bearer, WLANStandard and CellStandard are the resolved -bearer,
	// -wlan and -cell values, in core.MCConfig's terms.
	Bearer       core.BearerKind
	WLANStandard wireless.Standard
	CellStandard cellular.Standard

	station               bool
	bearer, wlanStd, cell string
}

// AddFlags registers the flags every CLI shares: -seed, -shards, -cc,
// -metrics, -timeline, -timeline-interval and the profile flags.
// interval is the -timeline-interval default, which differs by CLI.
func (o *Options) AddFlags(fs *flag.FlagSet, interval time.Duration) {
	fs.Int64Var(&o.Seed, "seed", 1, "simulation seed (mcsim replica i runs at seed+i)")
	fs.IntVar(&o.Shards, "shards", 1, "worker lanes for the sharded executor (output is byte-identical at any value)")
	fs.StringVar(&o.CC, "cc", mtcp.CCReno, "TCP congestion control on every endpoint that does not pick its own: reno or cubic (output is byte-identical per seed for either)")
	fs.BoolVar(&o.Metrics, "metrics", false, "dump the telemetry registry after the run (mcbench: print the snapshots experiments attach as per-metric tables)")
	fs.StringVar(&o.Timeline, "timeline", "", "sample every metric on the simulation clock and write the time-series JSON here (mcbench: one tagged file per run next to this path)")
	fs.DurationVar(&o.TimelineInterval, "timeline-interval", interval, "simulated-time sampling interval for -timeline and the SLO rules")
	o.Profiles.addFlags(fs)
}

// AddStationFlags registers the flags of the CLIs that build a
// full-fidelity deployment (mcsim, mcload): -bearer, -wlan, -cell,
// -trace, -trace-sample and -slo.
func (o *Options) AddStationFlags(fs *flag.FlagSet) {
	o.station = true
	fs.StringVar(&o.bearer, "bearer", "wlan", "radio bearer: wlan or cellular")
	fs.StringVar(&o.wlanStd, "wlan", "802.11b", "WLAN standard (Table 4) for -bearer wlan: bluetooth, 802.11b, 802.11a, hiperlan2, 802.11g")
	fs.StringVar(&o.cell, "cell", "gprs", "cellular standard (Table 5) for -bearer cellular: gsm, tdma, cdma, gprs, edge, cdma2000, wcdma")
	fs.StringVar(&o.Trace, "trace", "", "write sampled transactions as a Chrome trace-event (Perfetto) JSON file and print a critical-path table")
	fs.IntVar(&o.TraceSample, "trace-sample", 1, "with -trace, keep every Nth transaction (deterministic 1-in-N sampling by trace ID)")
	fs.StringVar(&o.SLO, "slo", "", "evaluate SLO rules over the sampled timeline: default (the built-in set for the run), another built-in set name, or a JSON rule file")
}

// Check validates the parsed shared flags and resolves -cc and the
// bearer. SLO rule files resolve eagerly, so a bad -slo fails before the
// run rather than after it.
func (o *Options) Check() error {
	if o.Shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.Shards)
	}
	if o.TimelineInterval <= 0 {
		return fmt.Errorf("-timeline-interval must be > 0, got %v", o.TimelineInterval)
	}
	cc, err := mtcp.ParseCC(o.CC)
	if err != nil {
		return err
	}
	o.CC = cc
	if !o.station {
		return nil
	}
	if o.TraceSample < 1 {
		return fmt.Errorf("-trace-sample must be >= 1, got %d", o.TraceSample)
	}
	if o.SLO != "" && !strings.EqualFold(o.SLO, "default") {
		if _, err := obs.ResolveRules(o.SLO); err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
	}
	// Both standards are checked whichever bearer runs; only the
	// selected one reaches the deployment.
	wlanStd, err := wireless.StandardByName(o.wlanStd)
	if err != nil {
		return err
	}
	cellStd, err := cellular.StandardByName(o.cell)
	if err != nil {
		return err
	}
	switch strings.ToLower(o.bearer) {
	case "wlan":
		o.Bearer, o.WLANStandard = core.BearerWLAN, wlanStd
	case "cellular":
		o.Bearer, o.CellStandard = core.BearerCellular, cellStd
	default:
		return fmt.Errorf("unknown bearer %q", o.bearer)
	}
	return nil
}

// MCConfig returns the deployment the options select at seed: the
// bearer fields and the congestion control of a core.MCConfig.
func (o *Options) MCConfig(seed int64) core.MCConfig {
	return core.MCConfig{Seed: seed, Bearer: o.Bearer, WLANStandard: o.WLANStandard, CellStandard: o.CellStandard, CC: o.CC}
}

// interval is the experiments' sampling interval.
func (o *Options) interval() time.Duration {
	if o.TimelineInterval > 0 {
		return o.TimelineInterval
	}
	return ExperimentTimelineInterval
}

// Instrument prepares world for the outputs Finish writes: span export
// on every shard with -trace, and a timeline sampling every shard with
// -timeline or -slo (nil otherwise).
func (o *Options) Instrument(world *simnet.Sharded) *obs.Timeline {
	if o.Trace != "" {
		for k := 0; k < world.NumShards(); k++ {
			world.Shard(k).Tracer.EnableExport(o.TraceSample)
		}
	}
	if o.Timeline == "" && o.SLO == "" {
		return nil
	}
	tl := obs.NewTimeline(o.TimelineInterval)
	tl.AttachSharded(world)
	return tl
}

// Tier is how one CLI tier lays out the sections Finish writes.
type Tier struct {
	// SLO is the built-in rule set "-slo default" names on this tier.
	SLO string
	// Sampled names what one trace root is: "transactions" or
	// "operations".
	Sampled string
	// TraceGap puts a blank line before the trace section (mcsim's
	// layout).
	TraceGap bool
	// Format is the -metrics dump format: text (""), csv or openmetrics.
	Format string
}

// Finish writes the shared end-of-run sections of a run on world, in
// order: the SLO verdicts over tl, the -timeline file, the -trace
// Perfetto export plus its critical-path table, and the -metrics
// registry dump. Everything on w is deterministic per seed; the timeline
// notice goes to stderr because it echoes the output path.
func (o *Options) Finish(w io.Writer, world *simnet.Sharded, tl *obs.Timeline, t Tier) error {
	var slo []obs.Interval
	if tl != nil && o.SLO != "" {
		spec := o.SLO
		if strings.EqualFold(spec, "default") {
			spec = t.SLO
		}
		rules, err := obs.ResolveRules(spec)
		if err != nil {
			return err
		}
		slo = obs.Evaluate(tl, rules)
		fmt.Fprintf(w, "\nSLO verdicts (%d rules, %d violation intervals):\n", len(rules), len(slo))
		if len(slo) == 0 {
			fmt.Fprintln(w, "  all SLOs held")
		}
		for _, iv := range slo {
			state := "resolved"
			if !iv.Resolved {
				state = "firing at end"
			}
			fmt.Fprintf(w, "  %-24s %-36s %8s .. %-8s (%s, %s)\n",
				iv.Rule, iv.Series, iv.Start, iv.End, iv.End-iv.Start, state)
		}
	}
	if tl != nil && o.Timeline != "" {
		if err := WriteFile(o.Timeline, func(f io.Writer) error { return obs.WriteJSON(f, tl, slo) }); err != nil {
			return err
		}
		samples := 0
		for _, ws := range tl.Worlds() {
			samples = max(samples, ws.Samples())
		}
		fmt.Fprintf(os.Stderr, "timeline: %d samples at %s -> %s\n", samples, tl.Interval(), o.Timeline)
	}
	if o.Trace != "" {
		spans := world.Spans()
		if err := WriteFile(o.Trace, func(f io.Writer) error { return trace.WritePerfetto(f, spans) }); err != nil {
			return err
		}
		if t.TraceGap {
			fmt.Fprintln(w)
		}
		bds := trace.Analyze(spans)
		fmt.Fprintf(w, "trace: %d spans, %d sampled %s -> %s\n", len(spans), len(bds), t.Sampled, o.Trace)
		if err := trace.WriteTable(w, bds); err != nil {
			return err
		}
	}
	if !o.Metrics {
		return nil
	}
	snap := world.Snapshot()
	if t.Format == "openmetrics" {
		// OpenMetrics expositions are self-delimited (# EOF), so no
		// header line: the output pipes straight to a scraper or to
		// scripts/omlint.
		return obs.WriteOpenMetrics(w, snap)
	}
	fmt.Fprintf(w, "\ntelemetry registry (%d metrics):\n", len(snap.Entries))
	if t.Format == "csv" {
		return snap.WriteCSV(w)
	}
	return snap.WriteText(w)
}

// WriteFile creates path, fills it with write and closes it, reporting
// the first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
