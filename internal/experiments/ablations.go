package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/wireless"
)

// Ablations measures the design choices DESIGN.md §4 calls out: the WMLC
// binary encoding, 3G QoS scheduling, WTLS-lite security overhead, and
// disconnected operation with the embedded database.
func Ablations(seed int64, opts Options) []*Result {
	return []*Result{
		ablateWMLC(seed, opts.CC),
		ablateQoS(seed),
		ablateSecurity(seed),
		ablateSync(seed),
		ablateSAR(seed),
	}
}

// ablateSAR compares WTP with and without segmentation/reassembly when a
// large deck crosses a bit-error-prone radio hop: a single 20 KB frame is
// lost with probability ~1-(1-BER)^(8*20000) per attempt, while 1 KB
// segments repair selectively.
func ablateSAR(seed int64) *Result {
	res := newResult("Ablation A5", "WTP segmentation/reassembly (20 KB result, 200 kbps link, BER 1e-5)",
		"mode", "completed (of 5 seeds)", "mean time", "selective rtx")
	run := func(maxPDU int) (int, time.Duration, uint64) {
		completedCount := 0
		var sum time.Duration
		var rtx uint64
		for s := seed; s < seed+5; s++ {
			wcfg := wap.WTPConfig{MaxPDU: maxPDU, RetryInterval: 500 * time.Millisecond, MaxRetries: 10}
			net := simnet.NewNetwork(simnet.NewScheduler(s))
			a := net.NewNode("station")
			b := net.NewNode("gateway")
			l := simnet.Connect(a, b, simnet.LinkConfig{
				Rate: 200 * simnet.Kbps, Delay: 20 * time.Millisecond, BitErrorRate: 1e-5,
			})
			a.SetDefaultRoute(l.IfaceA())
			b.SetDefaultRoute(l.IfaceB())
			resp, err := wap.NewWTP(b, wap.GatewayPort, wcfg)
			if err != nil {
				continue
			}
			resp.Handle(func(_ simnet.Addr, _ any, respond func(any, int)) {
				respond("deck", 20_000)
			})
			init := wap.NewWTPAny(a, wcfg)
			var doneAt time.Duration
			init.Invoke(resp.Addr(), "get", 3, func(_ any, _ int, err error) {
				if err == nil {
					doneAt = net.Sched.Now()
				}
			})
			if err := net.Sched.RunFor(10 * time.Minute); err != nil {
				continue
			}
			if doneAt > 0 {
				completedCount++
				sum += doneAt
			}
			rtx += resp.Stats().SARSelectiveRtx
		}
		mean := time.Duration(0)
		if completedCount > 0 {
			mean = sum / time.Duration(completedCount)
		}
		return completedCount, mean, rtx
	}
	sarOK, sarMean, sarRtx := run(1000)
	wholeOK, wholeMean, _ := run(-1)
	res.AddRow("SAR (1 KB segments)", fmt.Sprint(sarOK), fmtDur(sarMean), fmt.Sprint(sarRtx))
	res.AddRow("whole-message retransmission", fmt.Sprint(wholeOK), fmtDur(wholeMean), "-")
	res.Note("a 20 KB frame at BER 1e-5 dies ~80%% of attempts; segments die ~8%% and only the gaps are re-sent")
	res.Set("sar_completed", float64(sarOK))
	res.Set("whole_completed", float64(wholeOK))
	return res
}

// ablateWMLC compares the WAP gateway with and without binary deck
// encoding on a slow bearer.
func ablateWMLC(seed int64, cc string) *Result {
	res := newResult("Ablation A1", "WML binary encoding (WMLC) on the air interface",
		"encoding", "payload bytes", "first-page latency")
	run := func(binary bool) (int, time.Duration) {
		cfg := wap.DefaultGatewayConfig()
		cfg.BinaryEncoding = binary
		mc, err := core.BuildMC(core.MCConfig{
			Seed: seed, WAPConfig: &cfg, DisableIMode: true, CC: cc,
			Devices: []device.Profile{device.PalmI705},
			// A slow bearer makes byte savings visible: Bluetooth-class.
			WLANStandard: wireless.Bluetooth,
		})
		if err != nil {
			res.Note("build: %v", err)
			return 0, 0
		}
		registerShop(mc.Host)
		var bytes int
		var lat time.Duration
		mc.TransactWAP(0, "/shop", func(tr core.Transaction) {
			if tr.Err == nil {
				bytes = tr.Page.WireBytes
				lat = tr.Latency
			}
		})
		if err := mc.Net.Sched.RunFor(5 * time.Minute); err != nil {
			res.Note("run: %v", err)
		}
		return bytes, lat
	}
	binBytes, binLat := run(true)
	txtBytes, txtLat := run(false)
	res.AddRow("WMLC (binary)", fmtBytes(binBytes), fmtDur(binLat))
	res.AddRow("textual WML", fmtBytes(txtBytes), fmtDur(txtLat))
	if txtBytes > 0 {
		res.Note("binary encoding saves %.0f%% of on-air payload bytes",
			100*(1-float64(binBytes)/float64(txtBytes)))
	}
	res.Set("wmlc_bytes", float64(binBytes))
	res.Set("wml_bytes", float64(txtBytes))
	res.Set("wmlc_ms", float64(binLat.Milliseconds()))
	res.Set("wml_ms", float64(txtLat.Milliseconds()))
	return res
}

// ablateQoS measures voice-packet delay on a saturated WCDMA cell with and
// without 3G QoS priority scheduling.
func ablateQoS(seed int64) *Result {
	res := newResult("Ablation A2", "3G QoS priority scheduling under mixed voice/bulk load",
		"scheduler", "max voice delay", "mean voice delay", "bulk delivered")
	run := func(disable bool) (time.Duration, time.Duration, int) {
		cfg := cellular.DefaultConfig()
		cfg.BitErrorRate = 0
		cfg.QueueLen = 1 << 16
		cfg.DisableQoS = disable
		simn := simnet.NewNetwork(simnet.NewScheduler(seed))
		server := simn.NewNode("server")
		bts := simn.NewNode("bts")
		wired := simnet.Connect(server, bts, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond, QueueLen: 1 << 16})
		server.SetDefaultRoute(wired.IfaceA())
		cn := cellular.New(simn, cellular.WCDMA, cfg)
		cn.AddCell(bts, wireless.Position{})
		bts.SetRoute(server.ID, wired.IfaceB())

		bulkNode := simn.NewNode("bulk")
		voiceNode := simn.NewNode("voice")
		bulk := cn.AddMobile(bulkNode, wireless.Position{X: 100})
		voice := cn.AddMobile(voiceNode, wireless.Position{X: 200})
		bulk.Class = cellular.Background
		voice.Class = cellular.Conversational

		bulkGot := 0
		var delays []time.Duration
		bulkNode.Bind(simnet.ProtoControl, func(p *simnet.Packet) { bulkGot++ })
		voiceNode.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
			delays = append(delays, simn.Sched.Now()-p.Sent)
		})
		if err := bulk.Attach(nil); err != nil {
			return 0, 0, 0
		}
		if err := voice.Attach(nil); err != nil {
			return 0, 0, 0
		}
		simn.Sched.After(time.Second, func() {
			for i := 0; i < 4000; i++ {
				server.Send(&simnet.Packet{Src: simnet.Addr{Node: server.ID}, Dst: simnet.Addr{Node: bulkNode.ID}, Proto: simnet.ProtoControl, Bytes: 1000})
			}
			for i := 0; i < 100; i++ {
				i := i
				simn.Sched.After(time.Duration(i)*20*time.Millisecond, func() {
					server.Send(&simnet.Packet{Src: simnet.Addr{Node: server.ID}, Dst: simnet.Addr{Node: voiceNode.ID}, Proto: simnet.ProtoControl, Bytes: 160})
				})
			}
		})
		if err := simn.Sched.RunUntil(20 * time.Second); err != nil {
			return 0, 0, 0
		}
		var max, sum time.Duration
		for _, d := range delays {
			if d > max {
				max = d
			}
			sum += d
		}
		mean := time.Duration(0)
		if len(delays) > 0 {
			mean = sum / time.Duration(len(delays))
		}
		return max, mean, bulkGot
	}
	maxQ, meanQ, bulkQ := run(false)
	maxN, meanN, bulkN := run(true)
	res.AddRow("QoS (conversational first)", fmtDur(maxQ), fmtDur(meanQ), fmt.Sprint(bulkQ))
	res.AddRow("FIFO (QoS disabled)", fmtDur(maxN), fmtDur(meanN), fmt.Sprint(bulkN))
	res.Note("with QoS, voice delay stays bounded by one in-flight bulk frame; FIFO queues voice behind the whole bulk backlog")
	res.Set("qos_max_ms", float64(maxQ.Milliseconds()))
	res.Set("fifo_max_ms", float64(maxN.Milliseconds()))
	res.Set("qos_bulk", float64(bulkQ))
	res.Set("fifo_bulk", float64(bulkN))
	return res
}

// ablateSecurity measures the WTLS-lite channel's byte and time overhead
// for application messages crossing a 100 kbps bearer.
func ablateSecurity(seed int64) *Result {
	res := newResult("Ablation A3", "WTLS-lite channel security overhead (1000 x 256 B messages, 100 kbps link)",
		"mode", "bytes on air", "transfer time", "per-message overhead")

	run := func(secure bool) (int, time.Duration) {
		net := simnet.NewNetwork(simnet.NewScheduler(seed))
		a := net.NewNode("station")
		b := net.NewNode("host")
		l := simnet.Connect(a, b, simnet.LinkConfig{Rate: 100 * simnet.Kbps, Delay: 50 * time.Millisecond, QueueLen: 1 << 16})
		a.SetDefaultRoute(l.IfaceA())
		b.SetDefaultRoute(l.IfaceB())

		var chA, chB *security.Channel
		if secure {
			rng := rand.New(rand.NewSource(seed))
			hello, cont, err := security.HandshakeClient([]byte("psk"), rng)
			if err != nil {
				return 0, 0
			}
			sh, srv, err := security.HandshakeServer([]byte("psk"), rng, hello)
			if err != nil {
				return 0, 0
			}
			chB = srv
			chA, err = cont(sh)
			if err != nil {
				return 0, 0
			}
		}
		const n, msgLen = 1000, 256
		received := 0
		var doneAt time.Duration
		b.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
			if secure {
				body, ok := p.Body.([]byte)
				if !ok {
					return
				}
				if _, err := chB.Open(body); err != nil {
					return
				}
			}
			received++
			if received == n {
				doneAt = net.Sched.Now()
			}
		})
		msg := make([]byte, msgLen)
		for i := 0; i < n; i++ {
			wire := msg
			if secure {
				wire = chA.Seal(msg)
			}
			a.Send(&simnet.Packet{
				Src: simnet.Addr{Node: a.ID}, Dst: simnet.Addr{Node: b.ID},
				Proto: simnet.ProtoControl, Bytes: len(wire) + simnet.UDPHeaderBytes, Body: wire,
			})
		}
		if err := net.Sched.RunFor(10 * time.Minute); err != nil {
			return 0, 0
		}
		if received != n {
			return 0, 0
		}
		return int(l.IfaceA().TxBytes), doneAt
	}
	plainBytes, plainTime := run(false)
	secBytes, secTime := run(true)
	res.AddRow("plaintext", fmtBytes(plainBytes), fmtDur(plainTime), "-")
	res.AddRow("WTLS-lite (AES-CTR + HMAC)", fmtBytes(secBytes), fmtDur(secTime),
		fmt.Sprintf("%d B", security.RecordOverhead))
	if plainBytes > 0 {
		res.Note("confidentiality+integrity cost %.1f%% extra bytes and %.1f%% extra time on this bearer",
			100*(float64(secBytes)/float64(plainBytes)-1),
			100*(float64(secTime)/float64(plainTime)-1))
	}
	res.Set("plain_bytes", float64(plainBytes))
	res.Set("secure_bytes", float64(secBytes))
	res.Set("plain_ms", float64(plainTime.Milliseconds()))
	res.Set("secure_ms", float64(secTime.Milliseconds()))
	return res
}

// ablateSync compares always-online operation against embedded-database
// sync under intermittent connectivity (2 s up / 2 s down duty cycle).
func ablateSync(seed int64) *Result {
	res := newResult("Ablation A4", "Disconnected operation: embedded DB sync vs always-online (60 observations, 50% connectivity)",
		"strategy", "observations captured", "observations at server", "messages on air")

	const obs = 60
	const interval = 250 * time.Millisecond

	// Shared scenario: the link flaps every 2 s.
	build := func() (*simnet.Network, *simnet.Node, *simnet.Node, *simnet.Link) {
		net := simnet.NewNetwork(simnet.NewScheduler(seed))
		mob := net.NewNode("courier")
		srv := net.NewNode("server")
		l := simnet.Connect(mob, srv, simnet.LinkConfig{Rate: 100 * simnet.Kbps, Delay: 50 * time.Millisecond})
		mob.SetDefaultRoute(l.IfaceA())
		srv.SetDefaultRoute(l.IfaceB())
		for t := 2 * time.Second; t < 60*time.Second; t += 4 * time.Second {
			down, up := t, t+2*time.Second
			net.Sched.At(down, func() { l.IfaceA().Up = false })
			net.Sched.At(up, func() { l.IfaceA().Up = true })
		}
		return net, mob, srv, l
	}

	// Always-online: each observation is one datagram, lost when offline
	// (a fire-and-forget telemetry design).
	{
		net, mob, srv, l := build()
		got := map[string]bool{}
		simnet.UDPOf(srv).Listen(100, func(_ simnet.Addr, body any, _ int) {
			if s, ok := body.(string); ok {
				got[s] = true
			}
		})
		u := simnet.UDPOf(mob)
		for i := 0; i < obs; i++ {
			i := i
			net.Sched.At(time.Duration(i)*interval, func() {
				u.Send(101, simnet.Addr{Node: srv.ID, Port: 100}, fmt.Sprintf("obs-%d", i), 64)
			})
		}
		if err := net.Sched.RunFor(90 * time.Second); err != nil {
			res.Note("run: %v", err)
		}
		res.AddRow("always-online datagrams", fmt.Sprint(obs), fmt.Sprint(len(got)),
			fmt.Sprint(l.IfaceA().TxPackets))
		res.Set("online_delivered", float64(len(got)))
	}

	// Embedded DB: observations land locally regardless of connectivity;
	// a sync runs every 4 s when the link is up.
	{
		net, mob, srv, l := build()
		local := mobiledb.New("courier", 0)
		hub := mobiledb.New("hub", 0)
		simnet.UDPOf(srv).Listen(100, func(from simnet.Addr, body any, _ int) {
			req, ok := body.(*mobiledb.SyncRequest)
			if !ok {
				return
			}
			resp := hub.ServeSync(req)
			simnet.UDPOf(srv).Send(100, from, resp, 64+32*len(resp.Changes))
		})
		u := simnet.UDPOf(mob)
		var lastReq *mobiledb.SyncRequest
		u.Listen(101, func(_ simnet.Addr, body any, _ int) {
			resp, ok := body.(*mobiledb.SyncResponse)
			if !ok || lastReq == nil {
				return
			}
			local.FinishSync(lastReq, resp)
		})
		for i := 0; i < obs; i++ {
			i := i
			net.Sched.At(time.Duration(i)*interval, func() {
				if err := local.Put(fmt.Sprintf("obs-%d", i), []byte("x")); err != nil {
					res.Note("put: %v", err)
				}
			})
		}
		for t := time.Second; t < 80*time.Second; t += 4 * time.Second {
			t := t
			net.Sched.At(t, func() {
				lastReq = local.BeginSync("hub")
				u.Send(101, simnet.Addr{Node: srv.ID, Port: 100}, lastReq, 64+32*len(lastReq.Changes))
			})
		}
		if err := net.Sched.RunFor(120 * time.Second); err != nil {
			res.Note("run: %v", err)
		}
		res.AddRow("embedded DB + sync", fmt.Sprint(local.Len()), fmt.Sprint(hub.Len()),
			fmt.Sprint(l.IfaceA().TxPackets))
		res.Set("sync_delivered", float64(hub.Len()))
	}
	res.Note("fire-and-forget loses every observation made while disconnected; the embedded database captures all of them and reconciles in batches (Section 7's 'embedded databases ... accommodate the low-bandwidth constraints')")
	return res
}
