package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/faults"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/obs"
	"mcommerce/internal/simnet"
)

// tcpPath is the canonical mobile transport testbed:
// fixed --wired 10 Mbps/20 ms-- gateway --"wireless" 2 Mbps/2 ms, lossy-- mobile.
type tcpPath struct {
	net                    *simnet.Network
	fixed, gateway, mobile *simnet.Node
	wired, wireless        *simnet.Link
	fs, gs, ms             *mtcp.Stack
	cc                     string
}

// tcp stamps the run's congestion control onto opts, keeping any
// explicit per-experiment choice.
func (p *tcpPath) tcp(opts mtcp.Options) mtcp.Options {
	if opts.CC == "" {
		opts.CC = p.cc
	}
	return opts
}

func newTCPPath(seed int64, wirelessLoss float64, cc string) *tcpPath {
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	fixed := net.NewNode("fixed")
	gw := net.NewNode("gateway")
	mob := net.NewNode("mobile")
	gw.Forwarding = true
	wired := simnet.Connect(fixed, gw, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 20 * time.Millisecond})
	wl := simnet.Connect(gw, mob, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 2 * time.Millisecond, Loss: wirelessLoss})
	fixed.SetDefaultRoute(wired.IfaceA())
	mob.SetDefaultRoute(wl.IfaceB())
	gw.SetRoute(fixed.ID, wired.IfaceB())
	gw.SetRoute(mob.ID, wl.IfaceA())
	return &tcpPath{
		net: net, fixed: fixed, gateway: gw, mobile: mob, wired: wired, wireless: wl,
		fs: mtcp.MustNewStack(fixed),
		gs: mtcp.MustNewStack(gw),
		ms: mtcp.MustNewStack(mob),
		cc: cc,
	}
}

// tcpOutcome is one transfer's measurement.
type tcpOutcome struct {
	completed   bool
	elapsed     time.Duration
	goodputBps  float64
	retransmits uint64 // at the fixed (wired) sender
	timeouts    uint64
}

// runVariant pushes size bytes fixed→mobile under the named variant and
// measures the fixed sender's behaviour.
func runVariant(seed int64, cc, variant string, loss float64, size int, horizon time.Duration) tcpOutcome {
	p := newTCPPath(seed, loss, cc)
	var out tcpOutcome

	var fixedConn *mtcp.Conn
	got := 0
	var doneAt time.Duration
	onData := func(b []byte) {
		got += len(b)
		if got >= size && doneAt == 0 {
			doneAt = p.net.Sched.Now()
			p.net.Sched.Stop()
		}
	}

	switch variant {
	case "TCP (end-to-end Reno)":
		if err := p.ms.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) { c.OnData(onData) }); err != nil {
			return out
		}
		fixedConn = p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
			if err == nil {
				c.Send(make([]byte, size))
			}
		})
	case "TCP (end-to-end NewReno)":
		if err := p.ms.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) { c.OnData(onData) }); err != nil {
			return out
		}
		fixedConn = p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, mtcp.Options{NewReno: true}, func(c *mtcp.Conn, err error) {
			if err == nil {
				c.Send(make([]byte, size))
			}
		})
	case "I-TCP (split connection)":
		// The fixed server listens; the mobile connects through the
		// gateway relay; the server pushes the payload.
		if err := p.fs.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) {
			fixedConn = c
			c.Send(make([]byte, size))
		}); err != nil {
			return out
		}
		if _, err := mtcp.NewRelay(p.gs, 8080, simnet.Addr{Node: p.fixed.ID, Port: 80},
			p.tcp(mtcp.Options{RTOMin: 100 * time.Millisecond}), p.tcp(mtcp.Options{})); err != nil {
			return out
		}
		p.ms.Dial(simnet.Addr{Node: p.gateway.ID, Port: 8080}, p.tcp(mtcp.Options{}), func(c *mtcp.Conn, err error) {
			if err == nil {
				c.OnData(onData)
			}
		})
	case "Snoop (packet caching)":
		mtcp.NewSnoopAgent(p.gateway, func(id simnet.NodeID) bool { return id == p.mobile.ID }, 0)
		if err := p.ms.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) { c.OnData(onData) }); err != nil {
			return out
		}
		fixedConn = p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, p.tcp(mtcp.Options{}), func(c *mtcp.Conn, err error) {
			if err == nil {
				c.Send(make([]byte, size))
			}
		})
	default:
		return out
	}

	if err := p.net.Sched.RunUntil(horizon); err != nil && err != simnet.ErrStopped {
		return out
	}
	if doneAt == 0 {
		// Incomplete within the horizon.
		out.elapsed = horizon
		out.goodputBps = float64(got*8) / horizon.Seconds()
	} else {
		out.completed = true
		out.elapsed = doneAt
		out.goodputBps = float64(size*8) / doneAt.Seconds()
	}
	if fixedConn != nil {
		st := fixedConn.Stats()
		out.retransmits = st.Retransmits
		out.timeouts = st.Timeouts
	}
	return out
}

// TCPVariants reproduces the Section 5.2 mobile-TCP claims as two
// experiments: (a) a wireless-loss sweep comparing end-to-end Reno with
// the split-connection approach of Yavatkar & Bhagawat [16] and the Snoop
// packet caching of Balakrishnan et al. [1]; (b) a disconnection scenario
// exercising the fast-retransmission-on-reconnection scheme of Caceres &
// Iftode [2].
func TCPVariants(seed int64, opts Options) []*Result {
	sweep := newResult("E-TCP(a)", "TCP variants vs wireless loss (300 KB download, fixed→mobile)",
		"wireless loss", "variant", "completed", "time", "goodput", "wired-sender retransmits")

	const size = 300 << 10
	const horizon = 5 * time.Minute
	variants := []string{"TCP (end-to-end Reno)", "TCP (end-to-end NewReno)", "I-TCP (split connection)", "Snoop (packet caching)"}
	losses := []float64{0.001, 0.01, 0.03, 0.05, 0.10}
	for _, loss := range losses {
		for _, v := range variants {
			o := runVariant(seed, opts.CC, v, loss, size, horizon)
			sweep.AddRow(
				fmt.Sprintf("%.1f%%", loss*100), v,
				fmt.Sprint(o.completed), fmtDur(o.elapsed), fmtRate(o.goodputBps),
				fmt.Sprint(o.retransmits),
			)
			key := fmt.Sprintf("%s@%.3f", v, loss)
			sweep.Set(key+"/goodput_bps", o.goodputBps)
			sweep.Set(key+"/retransmits", float64(o.retransmits))
			sweep.Set(key+"/completed", b2f(o.completed))
		}
	}
	sweep.Note("[16]: the split connection confines loss recovery to the wireless hop — its goodput degrades most slowly as loss grows")
	sweep.Note("[1]: snoop repairs wireless losses locally — the fixed sender's retransmissions stay near zero")
	sweep.Note("NewReno beats Reno at moderate random loss (several losses per window recover without RTO) but lags on burst queue-overflow loss, where one retransmission per RTT is slower than Reno's timeout+go-back-N — without SACK that is the expected trade")

	recon := newResult("E-TCP(b)", "Fast retransmission after reconnection [2] (120 KB through a 4.2 s blackout)",
		"scheme", "transfer time", "idle after reconnect")
	for _, signal := range []bool{false, true} {
		elapsed, idle := reconnectRun(seed, opts.CC, signal)
		name := "standard TCP (waits for backed-off RTO)"
		if signal {
			name = "fast retransmit on reconnection [2]"
		}
		recon.AddRow(name, fmtDur(elapsed), fmtDur(idle))
		key := map[bool]string{false: "rto", true: "fastrx"}[signal]
		recon.Set(key+"/elapsed_ms", float64(elapsed.Milliseconds()))
		recon.Set(key+"/idle_ms", float64(idle.Milliseconds()))
	}
	recon.Note("[2] 'utilizes the fast retransmission option immediately after handoff is completed' — recovery begins one RTT after reconnection instead of at the next backed-off timeout")
	return []*Result{sweep, recon}
}

// reconnectRun transfers 120 KB through a 300 ms – 4.5 s blackout and
// returns (completion time, idle time between reconnection and the first
// post-blackout delivery).
func reconnectRun(seed int64, cc string, signal bool) (time.Duration, time.Duration) {
	p := newTCPPath(seed, 0, cc)
	const size = 120 << 10
	const reconnectAt = 4500 * time.Millisecond

	var mobileConn *mtcp.Conn
	got := 0
	var doneAt, firstAfter time.Duration
	if err := p.ms.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) {
		mobileConn = c
		c.OnData(func(b []byte) {
			got += len(b)
			now := p.net.Sched.Now()
			if firstAfter == 0 && now > reconnectAt {
				firstAfter = now
			}
			if got >= size && doneAt == 0 {
				doneAt = now
				p.net.Sched.Stop()
			}
		})
	}); err != nil {
		return 0, 0
	}
	p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, p.tcp(mtcp.Options{}), func(c *mtcp.Conn, err error) {
		if err == nil {
			c.Send(make([]byte, size))
		}
	})
	p.net.Sched.At(300*time.Millisecond, func() { p.wireless.IfaceB().Up = false })
	p.net.Sched.At(reconnectAt, func() {
		p.wireless.IfaceB().Up = true
		if signal && mobileConn != nil {
			mobileConn.SignalReconnect()
		}
	})
	if err := p.net.Sched.RunUntil(10 * time.Minute); err != nil && err != simnet.ErrStopped {
		return 0, 0
	}
	if doneAt == 0 {
		doneAt = p.net.Sched.Now()
	}
	idle := time.Duration(0)
	if firstAfter > reconnectAt {
		idle = firstAfter - reconnectAt
	}
	return doneAt, idle
}

// The transport testbed's default fault plan, the §5.2 counterpart of
// the system-level DefaultChaosPlan: a short wireless blackout (a
// handoff), a wired brownout (backbone congestion), and a longer
// wireless disconnection. Restores at 4.5 s and 14 s are the handoff
// recovery measurement points.
func defaultTCPFaultPlan() *faults.Plan {
	p := faults.NewPlan("tcp-default-faults").
		Add(faults.Event{At: 3 * time.Second, Duration: 1500 * time.Millisecond, Kind: faults.LinkDown, Target: "wireless"}).
		Add(faults.Event{At: 8 * time.Second, Duration: time.Second, Kind: faults.Brownout, Target: "wired", RateFactor: 0.2, ExtraLoss: 0.1}).
		Add(faults.Event{At: 12 * time.Second, Duration: 2 * time.Second, Kind: faults.LinkDown, Target: "wireless"})
	p.Sort()
	return p
}

// tcpFaultRestores are the instants the plan's wireless blackouts lift.
var tcpFaultRestores = []time.Duration{4500 * time.Millisecond, 14 * time.Second}

// faultedOutcome measures one variant's ride through the fault plan.
type faultedOutcome struct {
	completed bool
	elapsed   time.Duration
	// rtxOverhead is retransmitted segments as a fraction of all segments
	// the wired sender transmitted.
	rtxOverhead float64
	// recovery[i] is the gap between blackout i lifting and the next
	// in-order delivery at the mobile (zero if the transfer was already
	// complete).
	recovery []time.Duration
	// timeline carries the run's sampled telemetry with the fault plan
	// as annotations; slo the tcpfault rule set's verdicts over it.
	timeline *obs.Timeline
	slo      []obs.Interval
}

// runFaulted pushes size bytes fixed→mobile under the named variant with
// the default fault plan running, plus 1% ambient wireless loss.
// "TCP + fast reconnect" is end-to-end Reno with SignalReconnect fired
// at each wireless restore, the Caceres & Iftode [2] scheme driven by
// the link layer.
func runFaulted(seed int64, opts *Options, variant string, size int, horizon time.Duration) faultedOutcome {
	p := newTCPPath(seed, 0.01, opts.CC)
	var out faultedOutcome
	out.recovery = make([]time.Duration, len(tcpFaultRestores))

	in := faults.NewInjector(p.net)
	in.RegisterLink("wired", p.wired)
	in.RegisterLink("wireless", p.wireless)
	if err := in.Schedule(defaultTCPFaultPlan()); err != nil {
		return out
	}
	tl := obs.NewTimeline(opts.interval())
	tl.Attach("", p.net)

	var fixedConn, mobileConn *mtcp.Conn
	got := 0
	var doneAt time.Duration
	onData := func(b []byte) {
		now := p.net.Sched.Now()
		for i, up := range tcpFaultRestores {
			if out.recovery[i] == 0 && now > up {
				out.recovery[i] = now - up
			}
		}
		got += len(b)
		if got >= size && doneAt == 0 {
			doneAt = now
			p.net.Sched.Stop()
		}
	}

	fastReconnect := false
	switch variant {
	case "TCP (end-to-end Reno)", "TCP + fast reconnect [2]":
		fastReconnect = variant == "TCP + fast reconnect [2]"
		if err := p.ms.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) {
			mobileConn = c
			c.OnData(onData)
		}); err != nil {
			return out
		}
		fixedConn = p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, p.tcp(mtcp.Options{}), func(c *mtcp.Conn, err error) {
			if err == nil {
				c.Send(make([]byte, size))
			}
		})
	case "I-TCP (split connection)":
		if err := p.fs.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) {
			fixedConn = c
			c.Send(make([]byte, size))
		}); err != nil {
			return out
		}
		// The relay's wired leg advertises a window sized to the wired
		// BDP: the fixed sender then never blasts the LAN queue into
		// overflow cycles while the wireless leg stalls through a
		// blackout, so its retransmission counter reflects wireless
		// events reaching it, not self-inflicted buffer loss.
		if _, err := mtcp.NewRelay(p.gs, 8080, simnet.Addr{Node: p.fixed.ID, Port: 80},
			p.tcp(mtcp.Options{RTOMin: 100 * time.Millisecond}), p.tcp(mtcp.Options{RcvWnd: 64 << 10})); err != nil {
			return out
		}
		p.ms.Dial(simnet.Addr{Node: p.gateway.ID, Port: 8080}, p.tcp(mtcp.Options{}), func(c *mtcp.Conn, err error) {
			if err == nil {
				mobileConn = c
				c.OnData(onData)
			}
		})
	case "Snoop (packet caching)":
		mtcp.NewSnoopAgent(p.gateway, func(id simnet.NodeID) bool { return id == p.mobile.ID }, 0)
		if err := p.ms.Listen(80, p.tcp(mtcp.Options{}), func(c *mtcp.Conn) {
			mobileConn = c
			c.OnData(onData)
		}); err != nil {
			return out
		}
		fixedConn = p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, p.tcp(mtcp.Options{}), func(c *mtcp.Conn, err error) {
			if err == nil {
				c.Send(make([]byte, size))
			}
		})
	default:
		return out
	}

	if fastReconnect {
		// The link-layer handoff notification trails the restore by a
		// beat; firing at the exact restore instant would race the
		// injector's link-up event and drop the dupacks on a dead link.
		for _, up := range tcpFaultRestores {
			up := up
			p.net.Sched.At(up+time.Millisecond, func() {
				if mobileConn != nil {
					mobileConn.SignalReconnect()
				}
			})
		}
	}

	if err := p.net.Sched.RunUntil(horizon); err != nil && err != simnet.ErrStopped {
		return out
	}
	if doneAt == 0 {
		out.elapsed = horizon
	} else {
		out.completed = true
		out.elapsed = doneAt
	}
	if fixedConn != nil {
		st := fixedConn.Stats()
		if st.SegmentsSent > 0 {
			out.rtxOverhead = float64(st.Retransmits) / float64(st.SegmentsSent)
		}
	}
	tl.IngestFaults(in)
	out.timeline = tl
	out.slo = obs.Evaluate(tl, obs.DefaultRules("tcpfault"))
	return out
}

// TCPFaultPlan compares the §5.2 variants riding the transport testbed's
// default fault plan: sender retransmission overhead and per-blackout
// handoff recovery time, the two costs the paper's cited schemes attack.
func TCPFaultPlan(seed int64, opts Options) []*Result {
	r := newResult("E-TCP(d)", "TCP variants under the default fault plan (2 MB, two wireless blackouts + wired brownout, 1% ambient loss)",
		"variant", "completed", "time", "sender rtx overhead", "recovery after 1.5s blackout", "recovery after 2s blackout", "SLO violations")
	const size = 2 << 20
	const horizon = 2 * time.Minute
	variants := []string{
		"TCP (end-to-end Reno)",
		"Snoop (packet caching)",
		"I-TCP (split connection)",
		"TCP + fast reconnect [2]",
	}
	for _, v := range variants {
		o := runFaulted(seed, &opts, v, size, horizon)
		rec := func(i int) string {
			if i >= len(o.recovery) || o.recovery[i] == 0 {
				return "done before"
			}
			return fmtDur(o.recovery[i])
		}
		r.AddRow(v, fmt.Sprint(o.completed), fmtDur(o.elapsed),
			fmt.Sprintf("%.1f%%", o.rtxOverhead*100), rec(0), rec(1), sloCell(o.slo))
		r.AttachSLO(v, o.slo)
		opts.writeTimeline(r, timelineTag("tcpfault", v), o.timeline, o.slo)
		r.Set(v+"/elapsed_ms", float64(o.elapsed.Milliseconds()))
		r.Set(v+"/rtx_overhead", o.rtxOverhead)
		r.Set(v+"/completed", b2f(o.completed))
		for i, d := range o.recovery {
			r.Set(fmt.Sprintf("%s/recovery%d_ms", v, i), float64(d.Milliseconds()))
		}
	}
	r.Note("snoop and the split connection keep the wired sender's retransmission overhead below the end-to-end baseline — the wireless blackouts are repaired (or absorbed) at the gateway")
	r.Note("fast reconnect [2] does not reduce retransmission volume; it removes the backed-off RTO wait, so recovery after each blackout is roughly one RTT")
	return []*Result{r}
}
