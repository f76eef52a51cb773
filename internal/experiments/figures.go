package experiments

import (
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/core"
	"mcommerce/internal/webserver"
)

// shopPage is the canonical storefront used across experiments.
func registerShop(h *core.Host) {
	h.Server.Handle("/shop", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>WidgetShop</title></head>
<body>
<h1>Catalog</h1>
<p>Welcome to <b>WidgetShop</b>. Today's specials:</p>
<p><a href="/item?id=1">Widget Classic</a> — 9.99</p>
<p><a href="/item?id=2">Widget Pro</a> — 19.99</p>
<h2>Checkout</h2>
<form action="/buy" method="post"><input type="text" name="qty"><input type="submit" value="Buy"></form>
</body></html>`)
	})
}

// Figure1 reproduces the electronic commerce system structure: it builds
// the four-component EC system, validates it against the model, and runs a
// purchase round from each desktop client over the wired network.
func Figure1(seed int64) *Result {
	res := newResult("Figure 1", "An e-commerce system structure (4 components)",
		"component kind", "instance")

	ec, err := core.BuildEC(core.ECConfig{Seed: seed, Clients: 3})
	if err != nil {
		res.Note("build failed: %v", err)
		return res
	}
	registerShop(ec.Host)
	if err := ec.Sys.Validate(); err != nil {
		res.Note("VALIDATION FAILED: %v", err)
	} else {
		res.Note("structure valid: all four EC components present and layered")
	}
	for _, c := range ec.Sys.Components() {
		res.AddRow(c.Kind.String(), c.Name)
	}

	var lats []time.Duration
	ok := 0
	for i := range ec.Clients {
		i := i
		ec.Transact(i, "/shop", func(r *webserver.Response, lat time.Duration, err error) {
			if err == nil && r.Status == 200 {
				ok++
				lats = append(lats, lat)
			}
		})
	}
	if err := ec.Net.Sched.RunFor(time.Minute); err != nil {
		res.Note("run: %v", err)
	}
	res.Note("transactions: %d/%d ok, median latency %s", ok, len(ec.Clients), fmtDur(median(lats)))
	res.Set("transactions_ok", float64(ok))
	res.Set("median_latency_ms", float64(median(lats).Milliseconds()))
	res.Set("components", float64(len(ec.Sys.Components())))
	return res
}

// Figure2 reproduces the mobile commerce system structure: the
// six-component MC system, validated, with one transaction through each
// middleware path exercising the full chain
// station→middleware→wireless→wired→host.
func Figure2(seed int64, opts Options) *Result {
	res := newResult("Figure 2", "A mobile commerce system structure (6 components)",
		"component kind", "instance")

	mc, err := core.BuildMC(core.MCConfig{Seed: seed, CC: opts.CC})
	if err != nil {
		res.Note("build failed: %v", err)
		return res
	}
	registerShop(mc.Host)
	if err := apps.RegisterAll(mc.Host); err != nil {
		res.Note("apps: %v", err)
	}
	if err := mc.Sys.Validate(); err != nil {
		res.Note("VALIDATION FAILED: %v", err)
	} else {
		res.Note("structure valid: all six MC components present and layered")
	}
	for _, c := range mc.Sys.Components() {
		name := c.Name
		if c.Optional {
			name += " (optional)"
		}
		res.AddRow(c.Kind.String(), name)
	}

	okWAP, okIMode := false, false
	var latWAP, latIMode time.Duration
	mc.TransactWAP(0, "/shop", func(tr core.Transaction) {
		okWAP = tr.Err == nil
		latWAP = tr.Latency
	})
	mc.TransactIMode(1, "/shop", func(tr core.Transaction) {
		okIMode = tr.Err == nil
		latIMode = tr.Latency
	})
	if err := mc.Net.Sched.RunFor(2 * time.Minute); err != nil {
		res.Note("run: %v", err)
	}
	res.Note("WAP transaction (incl. session setup): ok=%v latency=%s", okWAP, fmtDur(latWAP))
	res.Note("i-mode transaction (always-on): ok=%v latency=%s", okIMode, fmtDur(latIMode))
	res.Set("wap_ok", b2f(okWAP))
	res.Set("imode_ok", b2f(okIMode))
	res.Set("wap_latency_ms", float64(latWAP.Milliseconds()))
	res.Set("imode_latency_ms", float64(latIMode.Milliseconds()))
	res.Set("components", float64(len(mc.Sys.Components())))
	return res
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
