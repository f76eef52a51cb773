package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/workload"
)

// Capacity runs the synthetic workload at growing user populations on a
// WLAN and a cellular bearer and reports throughput and tail latency — a
// load study of the whole six-component system. The shape: the 11 Mbps
// WLAN absorbs the populations easily (throughput scales with users, tail
// flat), while GPRS's ~100 kbps cell congests (tail latency blows up and
// throughput stops scaling).
func Capacity(seed int64, opts Options) *Result {
	res := newResult("E-CAP", "System capacity: mixed workload vs user population",
		"bearer", "users", "ops", "throughput", "p95 latency", "download p95")

	type point struct {
		bearer string
		cfg    core.MCConfig
	}
	bearers := []point{
		{"802.11b WLAN", core.MCConfig{Seed: seed, Bearer: core.BearerWLAN, CC: opts.CC}},
		{"GPRS cell", core.MCConfig{Seed: seed, Bearer: core.BearerCellular, CellStandard: cellular.GPRS, CC: opts.CC}},
	}
	for _, b := range bearers {
		for _, users := range []int{2, 10, 25} {
			rep, err := capacityRun(b.cfg, users)
			if err != nil {
				res.AddRow(b.bearer, fmt.Sprint(users), "error: "+err.Error(), "-", "-", "-")
				continue
			}
			dl := rep.Ops[workload.OpDownload]
			res.AddRow(b.bearer, fmt.Sprint(users),
				fmt.Sprint(rep.TotalOps),
				fmt.Sprintf("%.2f op/s", rep.Throughput),
				fmtDur(rep.P95),
				fmtDur(dl.P95),
			)
			key := fmt.Sprintf("%s/%d", b.bearer, users)
			res.Set(key+"/ops", float64(rep.TotalOps))
			res.Set(key+"/p95_ms", float64(rep.P95.Milliseconds()))
			res.Set(key+"/throughput", rep.Throughput)
		}
	}
	res.Note("same workload mix (5 browse : 2 pay : 2 track : 2 search : 1 download), 2 s mean think time, 2 min runs")
	res.Note("the WLAN scales with the population; the ~100 kbps GPRS cell saturates — its tail latency grows with every added user")
	return res
}

func capacityRun(cfg core.MCConfig, users int) (*workload.Report, error) {
	profiles := make([]device.Profile, users)
	for i := range profiles {
		profiles[i] = device.Profiles()[i%len(device.Profiles())]
	}
	cfg.Devices = profiles
	mc, err := core.BuildMC(cfg)
	if err != nil {
		return nil, err
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return nil, err
	}
	r, err := workload.NewRunner(mc, workload.Config{
		Users: users, ThinkMean: 2 * time.Second, Duration: 2 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	return r.Run()
}
