package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/markup"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
	"mcommerce/internal/workload"
)

// The ladder times direct calls into each layer's public functions on
// small fixtures of the benchmark's own, one rung per ROADMAP level
// L0-L7. Rungs that run a simulated world also record the work counters
// one call causes, so the decomposition can take each rung's cost net of
// the lower rungs it contains.

// rung is one timed ladder step.
type rung struct {
	name string  // metric name
	ns   float64 // median host nanoseconds per call
	// per is the counter work of one call (simulated rungs only).
	per counts
}

// ladderResult holds every rung by name.
type ladderResult map[string]rung

// Rung metric names, in ladder order.
const (
	rungAfterStep = "ladder.simnet.after_step_ns"
	rungLinkHop   = "ladder.simnet.link_hop_ns"
	rungSegment   = "ladder.mtcp.segment_ns"
	rungWTP       = "ladder.wap.wtp_exchange_ns"
	rungWMLC      = "ladder.markup.html_to_wmlc_ns"
	rungCHTML     = "ladder.markup.html_to_chtml_ns"
	rungRequest   = "ladder.webserver.request_ns"
	rungCommit    = "ladder.database.commit_ns"
	rungPayment   = "ladder.security.payment_ns"
	rungTxnIMode  = "ladder.core.txn_imode_us"
	rungTxnWAP    = "ladder.core.txn_wap_us"
)

// storefront is the page every full-fidelity workload fetches.
const storefront = "/shop"

var rungNames = []string{
	rungAfterStep, rungLinkHop, rungSegment, rungWTP, rungWMLC, rungCHTML,
	rungRequest, rungCommit, rungPayment, rungTxnIMode, rungTxnWAP,
}

// timeCalls runs call in batches for about budget and returns the median
// nanoseconds per call over the measured batches and the total number of
// calls made (batch sizing included).
func timeCalls(budget time.Duration, call func() error) (float64, int, error) {
	const batches = 7
	n, total := 1, 0
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				return 0, 0, err
			}
		}
		total += n
		if time.Since(t0) >= budget/(2*batches) || n >= 1<<26 {
			break
		}
		n *= 2
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				return 0, 0, err
			}
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		total += n
	}
	return median(per), total, nil
}

// simRung times call on a simulated world and records the registry work
// each call causes.
func simRung(name string, budget time.Duration, reg *metrics.Registry, call func() error) (rung, error) {
	before := countsOf(reg.Snapshot())
	ns, calls, err := timeCalls(budget, call)
	if err != nil {
		return rung{}, fmt.Errorf("%s: %w", name, err)
	}
	per := countsOf(reg.Snapshot()).sub(before).scale(1 / float64(calls))
	return rung{name: name, ns: ns, per: per}, nil
}

// runUntil steps the scheduler until done reports true.
func runUntil(s *simnet.Scheduler, done func() bool) error {
	for !done() {
		if !s.Step() {
			return errors.New("simulation went idle before the call completed")
		}
	}
	return nil
}

// pairNet is two nodes joined by one wired link, routed both ways.
func pairNet(cfg simnet.LinkConfig) (*simnet.Network, *simnet.Node, *simnet.Node) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	a, b := net.NewNode("a"), net.NewNode("b")
	l := simnet.Connect(a, b, cfg)
	a.SetDefaultRoute(l.IfaceA())
	b.SetDefaultRoute(l.IfaceB())
	return net, a, b
}

// fixture is what every rung gets: its time budget and the storefront
// page as the host serves it.
type fixture struct {
	budget time.Duration
	page   string
}

// runLadder times every rung, giving each about budget.
func runLadder(budget time.Duration) (ladderResult, error) {
	req, page, err := requestRung(budget)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	out := ladderResult{rungRequest: req}
	fx := fixture{budget: budget, page: page}
	for _, f := range []func(fixture) (rung, error){
		afterStepRung, linkHopRung, segmentRung, wtpRung, wmlcRung, chtmlRung,
		commitRung, paymentRung, txnIModeRung, txnWAPRung,
	} {
		r, err := f(fx)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		out[r.name] = r
	}
	return out, nil
}

// L0: one timer scheduled and dispatched.
func afterStepRung(fx fixture) (rung, error) {
	s := simnet.NewScheduler(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	ns, _, err := timeCalls(fx.budget, func() error {
		s.After(time.Microsecond, fn)
		if !s.Step() {
			return errors.New("empty queue")
		}
		return nil
	})
	return rung{name: rungAfterStep, ns: ns, per: counts{events: 1}}, err
}

// L1: one UDP datagram across one wired link.
func linkHopRung(fx fixture) (rung, error) {
	net, a, b := pairNet(simnet.LinkConfig{Rate: simnet.Gbps, Delay: time.Microsecond, QueueLen: 1 << 16})
	got := 0
	if err := simnet.UDPOf(b).Listen(7, func(simnet.Addr, any, int) { got++ }); err != nil {
		return rung{}, err
	}
	ua := simnet.UDPOf(a)
	dst := simnet.Addr{Node: b.ID, Port: 7}
	return simRung(rungLinkHop, fx.budget, net.Metrics, func() error {
		want := got + 1
		ua.Send(1, dst, nil, 100)
		return runUntil(net.Sched, func() bool { return got == want })
	})
}

// L2: one 512-byte send on an established connection, through
// segmentation, delivery and the returning ACK.
func segmentRung(fx fixture) (rung, error) {
	net, a, b := pairNet(simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond, QueueLen: 1 << 12})
	cs, err := mtcp.NewStack(a)
	if err != nil {
		return rung{}, err
	}
	ss, err := mtcp.NewStack(b)
	if err != nil {
		return rung{}, err
	}
	rcvd := 0
	if err := ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(bs []byte) { rcvd += len(bs) })
	}); err != nil {
		return rung{}, err
	}
	var conn *mtcp.Conn
	var dialErr error
	cs.Dial(simnet.Addr{Node: b.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) { conn, dialErr = c, err })
	if err := net.Sched.RunUntil(time.Second); err != nil {
		return rung{}, err
	}
	if conn == nil {
		return rung{}, fmt.Errorf("mtcp dial: %v", dialErr)
	}
	payload := make([]byte, 512)
	return simRung(rungSegment, fx.budget, net.Metrics, func() error {
		want := rcvd + len(payload)
		conn.Send(payload)
		if err := net.Sched.RunFor(50 * time.Millisecond); err != nil {
			return err
		}
		if rcvd != want {
			return fmt.Errorf("mtcp: %d bytes delivered, want %d", rcvd, want)
		}
		return nil
	})
}

// L3: one WTP invoke/result exchange between two endpoints.
func wtpRung(fx fixture) (rung, error) {
	net, a, b := pairNet(simnet.LAN)
	srv, err := wap.NewWTP(b, 9201, wap.WTPConfig{})
	if err != nil {
		return rung{}, err
	}
	srv.Handle(func(_ simnet.Addr, body any, respond func(any, int)) { respond(body, 200) })
	cl := wap.NewWTPAny(a, wap.WTPConfig{})
	return simRung(rungWTP, fx.budget, net.Metrics, func() error {
		done := false
		var ierr error
		cl.Invoke(srv.Addr(), "get /shop", 100, func(_ any, _ int, err error) { done, ierr = true, err })
		if err := runUntil(net.Sched, func() bool { return done }); err != nil {
			return err
		}
		return ierr
	})
}

// L4: the WAP gateway's transcoding of the storefront: HTML to binary WML.
func wmlcRung(fx fixture) (rung, error) {
	maxCard := wap.DefaultGatewayConfig().MaxCardBytes
	ns, _, err := timeCalls(fx.budget, func() error {
		if len(markup.EncodeWMLC(markup.HTMLToWML(markup.Parse(fx.page), maxCard))) == 0 {
			return errors.New("empty WMLC deck")
		}
		return nil
	})
	return rung{name: rungWMLC, ns: ns, per: counts{wmlc: 1}}, err
}

// L4: the i-mode portal's filtering of the storefront: HTML to cHTML.
func chtmlRung(fx fixture) (rung, error) {
	ns, _, err := timeCalls(fx.budget, func() error {
		if markup.RenderCHTML(markup.HTMLToCHTML(markup.Parse(fx.page))) == "" {
			return errors.New("empty cHTML page")
		}
		return nil
	})
	return rung{name: rungCHTML, ns: ns, per: counts{chtml: 1}}, err
}

// L5: one HTTP/1.0 GET of the storefront from the workload's host over a
// LAN, connection setup and teardown included. It returns the page.
func requestRung(budget time.Duration) (rung, string, error) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	host, err := core.NewHost(net, "host", []byte("ladder-key"), mtcp.Options{})
	if err != nil {
		return rung{}, "", err
	}
	if err := workload.RegisterHandlers(host); err != nil {
		return rung{}, "", err
	}
	cn := net.NewNode("client")
	l := simnet.Connect(cn, host.Node, simnet.LAN)
	cn.SetDefaultRoute(l.IfaceA())
	host.Node.SetDefaultRoute(l.IfaceB())
	stack, err := mtcp.NewStack(cn)
	if err != nil {
		return rung{}, "", err
	}
	cl := webserver.NewClient(stack, mtcp.Options{})
	var page string
	r, err := simRung(rungRequest, budget, net.Metrics, func() error {
		var resp *webserver.Response
		var rerr error
		done := false
		cl.Get(host.Addr(), storefront, nil, func(r *webserver.Response, err error) { resp, rerr, done = r, err, true })
		if err := runUntil(net.Sched, func() bool { return done }); err != nil {
			return err
		}
		if rerr != nil {
			return rerr
		}
		if resp.Status != 200 {
			return fmt.Errorf("GET %s: status %d", storefront, resp.Status)
		}
		page = string(resp.Body)
		return nil
	})
	return r, page, err
}

// L6: one read-modify-write transaction committed to the host database.
func commitRung(fx fixture) (rung, error) {
	db := database.New()
	if err := db.CreateTable("acct", database.Schema{
		{Name: "k", Type: database.TypeString},
		{Name: "v", Type: database.TypeInt},
	}, "k"); err != nil {
		return rung{}, err
	}
	const rows = 1000
	keys := make([]string, rows)
	tx := db.Begin()
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		if err := tx.Insert("acct", database.Row{"k": keys[i], "v": int64(0)}); err != nil {
			return rung{}, err
		}
	}
	if err := tx.Commit(); err != nil {
		return rung{}, err
	}
	i := 0
	ns, _, err := timeCalls(fx.budget, func() error {
		key := keys[i%rows]
		i++
		return db.Atomically(0, func(tx *database.Tx) error {
			row, err := tx.GetForUpdate("acct", key)
			if err != nil {
				return err
			}
			row["v"] = row["v"].(int64) + 1
			return tx.Update("acct", row)
		})
	})
	return rung{name: rungCommit, ns: ns, per: counts{dbCommits: 1}}, err
}

// paymentRung times one payment order signed on the handset and verified
// on the host.
func paymentRung(fx fixture) (rung, error) {
	key := []byte("payment-demo-key")
	o := security.PaymentOrder{OrderID: "wl-1-1", Payer: "wl-user-1", Payee: "wl-merchant", AmountCp: 199}
	ns, _, err := timeCalls(fx.budget, func() error {
		o.IssuedAt++
		if !security.VerifyPayment(key, o, security.SignPayment(key, o)) {
			return errors.New("payment signature rejected")
		}
		return nil
	})
	return rung{name: rungPayment, ns: ns}, err
}

// L7: one end-to-end transaction in an otherwise idle world: i-mode over
// 802.11b, or a WAP session plus fetch over GPRS. Reported in µs.
func txnIModeRung(fx fixture) (rung, error) { return txnRung(fx, rungTxnIMode) }
func txnWAPRung(fx fixture) (rung, error)   { return txnRung(fx, rungTxnWAP) }

func txnRung(fx fixture, name string) (rung, error) {
	cfg := core.MCConfig{Seed: 1, Devices: devices(1)}
	if name == rungTxnWAP {
		cfg.Bearer, cfg.CellStandard = core.BearerCellular, cellular.GPRS
	}
	mc, err := core.BuildMC(cfg)
	if err != nil {
		return rung{}, err
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return rung{}, err
	}
	transact := mc.TransactIMode
	if name == rungTxnWAP {
		transact = mc.TransactWAP
	}
	r, err := simRung(name, fx.budget, mc.Net.Metrics, func() error {
		var t core.Transaction
		done := false
		transact(0, storefront, func(tx core.Transaction) { t, done = tx, true })
		if err := runUntil(mc.Net.Sched, func() bool { return done }); err != nil {
			return err
		}
		return t.Err
	})
	r.ns /= 1e3
	return r, err
}

// ownCosts turns the ladder into exclusive unit costs, in nanoseconds:
// each simulated rung's time minus the events, hops and segments it
// contains, priced at the lower rungs' own costs, divided by how many of
// its own unit one call performs. Costs are floored at zero.
type ownCosts struct {
	event, hop, segment, wtp, wmlc, chtml, request, commit, payment float64
}

func (l ladderResult) own() ownCosts {
	var o ownCosts
	net := func(r rung, unit float64) float64 {
		x := r.ns - r.per.events*o.event - r.per.hops()*o.hop - r.per.segments*o.segment
		if unit <= 0 {
			return 0
		}
		return math.Max(0, x/unit)
	}
	o.event = l[rungAfterStep].ns
	o.hop = net(l[rungLinkHop], l[rungLinkHop].per.hops())
	o.segment = net(l[rungSegment], l[rungSegment].per.segments)
	o.wtp = net(l[rungWTP], l[rungWTP].per.wtpInvokes)
	o.wmlc = l[rungWMLC].ns
	o.chtml = l[rungCHTML].ns
	o.request = net(l[rungRequest], l[rungRequest].per.webRequests)
	o.commit = l[rungCommit].ns
	o.payment = l[rungPayment].ns
	return o
}

// term is one line of a decomposition: a count per op times a unit cost.
type term struct {
	what       string
	perOp, own float64
}

// decompose prices a workload's per-op counts (and payments per op) at
// the ladder's own costs.
func (o ownCosts) decompose(c counts, paymentsPerOp float64) []term {
	return []term{
		{"L0 scheduler events", c.events, o.event},
		{"L1 link/radio hops", c.hops(), o.hop},
		{"L2 mtcp segments", c.segments, o.segment},
		{"L3 WTP invokes", c.wtpInvokes, o.wtp},
		{"L4 HTML->WMLC translations", c.wmlc, o.wmlc},
		{"L4 HTML->cHTML filterings", c.chtml, o.chtml},
		{"L5 web requests", c.webRequests, o.request},
		{"L6 database commits", c.dbCommits, o.commit},
		{"L6 payment sign+verify", paymentsPerOp, o.payment},
	}
}
