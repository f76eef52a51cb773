package mcommerce_test

import (
	"testing"

	"mcommerce/internal/experiments"
)

// The benchmarks below regenerate the paper's evaluation artifacts — one
// benchmark per figure/table plus the Section 5.2 prose experiments and
// the DESIGN.md ablations. Each reports the experiment's headline numbers
// as custom metrics so `go test -bench=.` doubles as the reproduction run;
// cmd/mcbench prints the full tables.

// BenchmarkFigure1ECSystem regenerates Figure 1: the four-component
// electronic commerce baseline.
func BenchmarkFigure1ECSystem(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure1(int64(i + 1))
	}
	b.ReportMetric(res.Get("median_latency_ms"), "ms-ec-transaction")
	b.ReportMetric(res.Get("transactions_ok"), "transactions-ok")
}

// BenchmarkFigure2MCSystem regenerates Figure 2: the six-component mobile
// commerce system with a transaction through each middleware.
func BenchmarkFigure2MCSystem(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure2(int64(i+1), experiments.Options{})
	}
	b.ReportMetric(res.Get("wap_latency_ms"), "ms-wap-transaction")
	b.ReportMetric(res.Get("imode_latency_ms"), "ms-imode-transaction")
}

// BenchmarkTable1Applications regenerates Table 1: all eight application
// categories end-to-end.
func BenchmarkTable1Applications(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table1(int64(i+1), experiments.Options{})
	}
	b.ReportMetric(res.Get("total_ops"), "app-ops")
	b.ReportMetric(res.Get("Commerce/avg_ms"), "ms-commerce-op")
	b.ReportMetric(res.Get("Entertainment/avg_ms"), "ms-download-op")
}

// BenchmarkTable2MobileStations regenerates Table 2: the five devices
// rendering the same page.
func BenchmarkTable2MobileStations(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table2(int64(i+1), experiments.Options{})
	}
	b.ReportMetric(res.Get("Palm i705/render_us"), "us-render-33MHz")
	b.ReportMetric(res.Get("Toshiba E740/render_us"), "us-render-400MHz")
}

// BenchmarkTable3Middleware regenerates Table 3: WAP vs i-mode.
func BenchmarkTable3Middleware(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table3(int64(i+1), experiments.Options{})
	}
	b.ReportMetric(res.Get("wap_first_ms"), "ms-wap-first")
	b.ReportMetric(res.Get("imode_first_ms"), "ms-imode-first")
	b.ReportMetric(res.Get("wap_bytes"), "B-wmlc-payload")
	b.ReportMetric(res.Get("imode_bytes"), "B-chtml-payload")
}

// BenchmarkTable4WLAN regenerates Table 4: goodput per WLAN standard and
// distance.
func BenchmarkTable4WLAN(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table4(int64(i + 1))
	}
	b.ReportMetric(res.Get("Bluetooth/near_bps")/1e6, "Mbps-bluetooth")
	b.ReportMetric(res.Get("802.11b (Wi-Fi)/near_bps")/1e6, "Mbps-80211b")
	b.ReportMetric(res.Get("802.11a/near_bps")/1e6, "Mbps-80211a")
}

// BenchmarkTable5Cellular regenerates Table 5: setup and goodput per
// cellular standard.
func BenchmarkTable5Cellular(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table5(int64(i + 1))
	}
	b.ReportMetric(res.Get("GPRS/bps")/1e3, "kbps-gprs")
	b.ReportMetric(res.Get("EDGE/bps")/1e3, "kbps-edge")
	b.ReportMetric(res.Get("WCDMA/bps")/1e6, "Mbps-wcdma")
	b.ReportMetric(res.Get("GSM/setup_ms"), "ms-circuit-setup")
}

// BenchmarkTCPVariants regenerates the Section 5.2 mobile-TCP experiments:
// the loss sweep of [16]/[1] and the reconnection scheme of [2].
func BenchmarkTCPVariants(b *testing.B) {
	var sweep, recon *experiments.Result
	for i := 0; i < b.N; i++ {
		rs := experiments.TCPVariants(int64(i+1), experiments.Options{})
		sweep, recon = rs[0], rs[1]
	}
	b.ReportMetric(sweep.Get("TCP (end-to-end Reno)@0.100/goodput_bps")/1e3, "kbps-reno-10pct")
	b.ReportMetric(sweep.Get("I-TCP (split connection)@0.100/goodput_bps")/1e3, "kbps-itcp-10pct")
	b.ReportMetric(sweep.Get("Snoop (packet caching)@0.100/goodput_bps")/1e3, "kbps-snoop-10pct")
	b.ReportMetric(recon.Get("rto/idle_ms"), "ms-idle-rto")
	b.ReportMetric(recon.Get("fastrx/idle_ms"), "ms-idle-fastrx")
}

// BenchmarkHandoffSweep regenerates the disconnection-frequency sweep
// (the "frequent handoffs and disconnections" cause from Section 5.2).
func BenchmarkHandoffSweep(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.HandoffSweep(int64(i + 1))
	}
	b.ReportMetric(res.Get("period_1s/plain_ms"), "ms-plain-1s-period")
	b.ReportMetric(res.Get("period_1s/fast_ms"), "ms-fastrx-1s-period")
}

// BenchmarkAdHocHops regenerates the ad hoc mesh hop-count experiment
// (Section 6.1's infrastructure-free mode).
func BenchmarkAdHocHops(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AdHocHops(int64(i + 1))
	}
	b.ReportMetric(res.Get("hops_1/goodput_bps")/1e6, "Mbps-1hop")
	b.ReportMetric(res.Get("hops_5/goodput_bps")/1e6, "Mbps-5hop")
	b.ReportMetric(res.Get("hops_5/http_ms"), "ms-http-5hop")
}

// BenchmarkMobileIPRoaming regenerates the Mobile IP transparency
// experiment.
func BenchmarkMobileIPRoaming(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.MobileIPRoaming(int64(i + 1))
	}
	b.ReportMetric(res.Get("baseline/ms"), "ms-transfer-home")
	b.ReportMetric(res.Get("mip/ms"), "ms-transfer-roaming")
	b.ReportMetric(res.Get("mip/tunneled"), "datagrams-tunneled")
}

// BenchmarkStreaming regenerates the playback-quality-per-bearer
// experiment (the paper's 3G motivation, quantified).
func BenchmarkStreaming(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Streaming(int64(i+1), experiments.Options{})
	}
	b.ReportMetric(res.Get("GPRS/stalls"), "stalls-gprs")
	b.ReportMetric(res.Get("WCDMA/stalls"), "stalls-wcdma")
	b.ReportMetric(res.Get("WCDMA/startup_ms"), "ms-startup-wcdma")
}

// BenchmarkCapacity regenerates the system capacity study (workload
// throughput and tail latency vs user population per bearer).
func BenchmarkCapacity(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Capacity(int64(i+1), experiments.Options{})
	}
	b.ReportMetric(res.Get("802.11b WLAN/25/throughput"), "ops-wlan-25users")
	b.ReportMetric(res.Get("GPRS cell/25/throughput"), "ops-gprs-25users")
	b.ReportMetric(res.Get("GPRS cell/25/p95_ms"), "ms-p95-gprs-25users")
}

// BenchmarkAblations regenerates the five DESIGN.md ablations.
func BenchmarkAblations(b *testing.B) {
	var rs []*experiments.Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Ablations(int64(i+1), experiments.Options{})
	}
	wmlc, qos, sec, sync := rs[0], rs[1], rs[2], rs[3]
	b.ReportMetric(wmlc.Get("wmlc_bytes"), "B-wmlc")
	b.ReportMetric(wmlc.Get("wml_bytes"), "B-wml-text")
	b.ReportMetric(qos.Get("qos_max_ms"), "ms-voice-qos")
	b.ReportMetric(qos.Get("fifo_max_ms"), "ms-voice-fifo")
	b.ReportMetric(sec.Get("secure_ms")/sec.Get("plain_ms"), "x-security-slowdown")
	b.ReportMetric(sync.Get("sync_delivered"), "obs-synced")
	b.ReportMetric(sync.Get("online_delivered"), "obs-online")
}

// BenchmarkChaos regenerates the fault-injection resilience study:
// transaction completion with the default fault plan on vs off, and with
// the resilience policies armed vs disabled.
func BenchmarkChaos(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Chaos(int64(i+1), experiments.Options{})[0]
	}
	b.ReportMetric(res.Get("faults, resilient/completion")*100, "pct-complete-resilient")
	b.ReportMetric(res.Get("faults, fragile/completion")*100, "pct-complete-fragile")
	b.ReportMetric(res.Get("faults, resilient/p99_ms"), "ms-p99-faulted")
	b.ReportMetric(res.Get("faults, resilient/amplification"), "x-retry-amplification")
}
