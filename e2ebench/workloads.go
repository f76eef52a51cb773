package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/experiments"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/webserver"
	"mcommerce/internal/workload"
)

// A scenario is one workload: a fixed simulated setting. Every repeat of a run
// builds it afresh from the seed, runs the same simulated horizon and
// must produce the same digest, so the host time a repeat takes is the
// only thing that varies between repeats.
type scenario struct {
	name string
	// sharded workloads run on every CPU (Workers = nproc) and are
	// checked against a 1-lane reference; the others are one partition.
	sharded bool
	build   func(seed int64, lanes int) (world, error)
}

// A world is one built instance of a workload.
type world interface {
	// run executes the simulated horizon; it is the timed part.
	run() error
	// outcome checks the finished run and fingerprints it (untimed).
	outcome() outcome
	// snapshot is the world's merged telemetry registry.
	snapshot() metrics.Snapshot
	// engine is the sharded executor's registry (empty for one partition).
	engine() metrics.Snapshot
	// simTime is the simulated clock.
	simTime() time.Duration
}

// outcome is what a finished repeat reports.
type outcome struct {
	ops    uint64 // simulated operations attempted
	failed uint64 // of which failed or timed out (simulated behaviour)
	// payments counts signed payment operations among ops.
	payments uint64
	// digest fingerprints every deterministic output of the run.
	digest uint64
	// summary is a one-line, deterministic account of the run.
	summary string
	// err is non-nil when an output check failed.
	err error
}

// Each workload loads some layers and bypasses others (README.md), so a
// gain in one layer that costs another shows on the workload that
// bypasses the first.
var scenarios = []scenario{
	// The full i-mode path: mtcp, the web server parser, cHTML, apps,
	// database and GC.
	{name: "imode-shop", build: buildIModeShop},
	// WAP sessions, WMLC transcoding and cellular; no bulk TCP or DB.
	{name: "wap-gprs", build: buildWAPGPRS},
	// Only the simnet wheel, links and sharded executor, at ~0 allocs/op.
	{name: "scale", sharded: true, build: buildScale},
	// The data tier: database WAL, repl shipping, mobiledb conflicts.
	{name: "sync-storm", sharded: true, build: buildSyncStorm},
}

func scenarioByName(name string) (scenario, bool) {
	for _, w := range scenarios {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

// Simulated horizons. Each is sized so that one repeat takes well under
// a second of host time, which keeps many repeats inside one run.
const (
	imodeShopHorizon = 2 * time.Minute
	wapGPRSHorizon   = 2 * time.Minute
	scaleHorizon     = 20 * time.Second
	// wapDrain is how long past the horizon in-flight WAP transactions
	// get to finish (WTP gives up well within it).
	wapDrain = time.Minute
)

// devices returns n stations cycling through the Table 2 profiles.
func devices(n int) []device.Profile {
	profiles := device.Profiles()
	out := make([]device.Profile, n)
	for i := range out {
		out[i] = profiles[i%len(profiles)]
	}
	return out
}

// digestOf hashes the parts of a run's deterministic output.
func digestOf(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		io.WriteString(h, p)
	}
	return h.Sum64()
}

// mcWorld carries what both full-fidelity workloads share.
type mcWorld struct{ mc *core.MC }

func (w *mcWorld) snapshot() metrics.Snapshot { return w.mc.Net.Metrics.Snapshot() }
func (w *mcWorld) engine() metrics.Snapshot   { return metrics.Snapshot{} }
func (w *mcWorld) simTime() time.Duration     { return w.mc.Net.Sched.Now() }

// imodeShop is the full-fidelity i-mode store: workload.Runner's closed
// loop of browse/pay/track/search/download over 802.11b.
type imodeShop struct {
	mcWorld
	runner *workload.Runner
	report *workload.Report
}

func buildIModeShop(seed int64, _ int) (world, error) {
	const users = 100
	mc, err := core.BuildMC(core.MCConfig{Seed: seed, Devices: devices(users)})
	if err != nil {
		return nil, err
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return nil, err
	}
	r, err := workload.NewRunner(mc, workload.Config{
		Users: users, ThinkMean: 2 * time.Second, Duration: imodeShopHorizon,
	})
	if err != nil {
		return nil, err
	}
	return &imodeShop{mcWorld: mcWorld{mc}, runner: r}, nil
}

func (w *imodeShop) run() (err error) {
	w.report, err = w.runner.Run()
	return err
}

func (w *imodeShop) outcome() outcome {
	rep := w.report
	var failed uint64
	for _, or := range rep.Ops {
		failed += uint64(or.Failures)
	}
	pay := rep.Ops[workload.OpPay]
	o := outcome{
		ops:      uint64(rep.TotalOps) + failed,
		failed:   failed,
		payments: uint64(pay.Count + pay.Failures),
		summary: fmt.Sprintf("ops=%d failed=%d p95=%v events=%d",
			rep.TotalOps+int(failed), failed, rep.P95, w.mc.Net.Sched.Executed()),
	}
	o.digest = digestOf(rep.String(), w.snapshot().String())
	for _, op := range []workload.Op{workload.OpBrowse, workload.OpPay, workload.OpTrack, workload.OpSearch, workload.OpDownload} {
		if rep.Ops[op].Count == 0 {
			o.err = fmt.Errorf("imode-shop: no successful %s operation", op)
		}
	}
	return o
}

// wapGPRS is the WAP tier over GPRS: every station runs its own closed
// loop of TransactWAP("/shop"), each a fresh WSP session plus one WTP
// invoke, with an exponential 500ms think time.
type wapGPRS struct {
	mcWorld
	started, done, failed uint64
	// badPages counts successful transactions that did not return the
	// storefront as a binary WML deck.
	badPages uint64
}

func buildWAPGPRS(seed int64, _ int) (world, error) {
	const stations = 40
	mc, err := core.BuildMC(core.MCConfig{
		Seed: seed, Bearer: core.BearerCellular, CellStandard: cellular.GPRS,
		Devices: devices(stations),
	})
	if err != nil {
		return nil, err
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return nil, err
	}
	w := &wapGPRS{mcWorld: mcWorld{mc}}
	for i := range mc.Clients {
		w.next(i)
	}
	return w, nil
}

// next schedules station i's next transaction after a think time.
func (w *wapGPRS) next(i int) {
	sched := w.mc.Net.Sched
	think := time.Duration(sched.Rand().ExpFloat64() * float64(500*time.Millisecond))
	sched.After(think, func() {
		if sched.Now() >= wapGPRSHorizon {
			return
		}
		w.started++
		w.mc.TransactWAP(i, storefront, func(t core.Transaction) {
			w.done++
			switch {
			case t.Err != nil:
				w.failed++
			case t.Page == nil || t.Page.ContentType != webserver.TypeWMLC ||
				!strings.Contains(t.Page.Text, "Buy widgets now"):
				w.badPages++
			}
			w.next(i)
		})
	})
}

func (w *wapGPRS) run() error {
	return w.mc.Net.Sched.RunUntil(wapGPRSHorizon + wapDrain)
}

func (w *wapGPRS) outcome() outcome {
	o := outcome{
		ops:    w.started,
		failed: w.failed + (w.started - w.done),
		summary: fmt.Sprintf("txns=%d failed=%d unfinished=%d events=%d",
			w.started, w.failed, w.started-w.done, w.mc.Net.Sched.Executed()),
	}
	o.digest = digestOf(o.summary, w.snapshot().String())
	switch {
	case w.started == 0:
		o.err = fmt.Errorf("wap-gprs: no transaction started")
	case w.badPages > 0:
		o.err = fmt.Errorf("wap-gprs: %d transactions did not return the storefront as WMLC", w.badPages)
	case w.done != w.started:
		o.err = fmt.Errorf("wap-gprs: %d of %d transactions never completed", w.started-w.done, w.started)
	}
	return o
}

// scaleWorld is experiments.BuildScale's virtual-station tier.
type scaleWorld struct{ sw *experiments.ScaleWorld }

func buildScale(seed int64, lanes int) (world, error) {
	sw, err := experiments.BuildScale(experiments.ScaleConfig{
		Seed: seed, Gateways: 4, CellsPerGateway: 4, StationsPerCell: 2000,
		RemotePerMille: 200, ThinkMean: 2 * time.Second,
		Duration: scaleHorizon, Workers: lanes,
	})
	if err != nil {
		return nil, err
	}
	return &scaleWorld{sw}, nil
}

func (w *scaleWorld) run() error {
	_, err := w.sw.Run()
	return err
}

func (w *scaleWorld) outcome() outcome {
	rep := w.sw.Report()
	o := outcome{
		ops:     rep.Ops + rep.Timeouts,
		failed:  rep.Timeouts,
		summary: fmt.Sprintf("ops=%d timeouts=%d events=%d", rep.Ops, rep.Timeouts, rep.Executed),
		digest:  digestOf(w.sw.Digest()),
	}
	if rep.Ops == 0 {
		o.err = fmt.Errorf("scale: no operation completed")
	}
	return o
}

func (w *scaleWorld) snapshot() metrics.Snapshot { return w.sw.World.Snapshot() }
func (w *scaleWorld) engine() metrics.Snapshot   { return w.sw.World.EngineSnapshot() }
func (w *scaleWorld) simTime() time.Duration     { return w.sw.World.Now() }

// syncStorm is experiments.BuildSyncStorm under the chaos plan.
type syncStorm struct {
	sw  *experiments.SyncStormWorld
	rep *experiments.SyncStormReport
}

func buildSyncStorm(seed int64, lanes int) (world, error) {
	sw, err := experiments.BuildSyncStorm(experiments.SyncStormConfig{
		Seed: seed, Gateways: 4, CellsPerGateway: 2, DevicesPerCell: 100,
		Replicas: 2, Policy: mobiledb.PolicyLWW, Workers: lanes,
	})
	if err != nil {
		return nil, err
	}
	return &syncStorm{sw: sw}, nil
}

func (w *syncStorm) run() (err error) {
	w.rep, err = w.sw.Run()
	return err
}

func (w *syncStorm) outcome() outcome {
	rep := w.rep
	o := outcome{
		ops:    rep.Syncs,
		failed: rep.Timeouts,
		summary: fmt.Sprintf("syncs=%d timeouts=%d writes=%d conflicts=%d lost=%d converged=%v",
			rep.Syncs, rep.Timeouts, rep.Writes, rep.Conflicts, rep.Lost(), rep.Converged),
		digest: digestOf(w.sw.Digest()),
	}
	switch {
	case rep.Lost() != 0:
		o.err = fmt.Errorf("sync-storm: lost=%d, want 0", rep.Lost())
	case !rep.Converged:
		o.err = fmt.Errorf("sync-storm: replicas did not converge")
	case rep.Syncs == 0:
		o.err = fmt.Errorf("sync-storm: no sync attempted")
	}
	return o
}

func (w *syncStorm) snapshot() metrics.Snapshot { return w.sw.World.Snapshot() }
func (w *syncStorm) engine() metrics.Snapshot   { return w.sw.World.EngineSnapshot() }
func (w *syncStorm) simTime() time.Duration     { return w.sw.World.Now() }
