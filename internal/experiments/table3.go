package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/device"
)

// Table3 reproduces "Two major kinds of mobile middleware": the paper's
// qualitative WAP vs i-mode rows, augmented with measurements from running
// the same storefront fetch through both middlewares on identical bearers —
// first-transaction latency (WAP pays the WSP session handshake; i-mode is
// always-on), repeat-transaction latency, and payload bytes on the air
// (WMLC binary encoding vs filtered cHTML).
func Table3(seed int64, opts Options) *Result {
	res := newResult("Table 3", "Two major kinds of mobile middleware",
		"", "WAP", "i-mode")

	// Paper rows (verbatim).
	res.AddRow("Developer", "WAP Forum", "NTT DoCoMo")
	res.AddRow("Function", "A protocol", "A complete mobile Internet service")
	res.AddRow("Host Language", "WML (Wireless Markup Language)", "CHTML (Compact HTML)")
	res.AddRow("Major Technology", "WAP Gateway", "TCP/IP modifications")
	res.AddRow("Key Features", "Widely adopted and flexible", "Highest number of users and easy to use")

	mc, err := core.BuildMC(core.MCConfig{
		Seed:    seed,
		CC:      opts.CC,
		Devices: []device.Profile{device.CompaqIPAQH3870, device.CompaqIPAQH3870},
	})
	if err != nil {
		res.Note("build failed: %v", err)
		return res
	}
	registerShop(mc.Host)

	var firstWAP, repeatWAP, firstIMode, repeatIMode time.Duration
	var wapBytes, imodeBytes int

	// WAP path: session connect + two fetches on client 0.
	start := mc.Net.Sched.Now()
	mc.Clients[0].ConnectWAP(func(br *device.Browser, err error) {
		if err != nil {
			res.Note("wap connect: %v", err)
			return
		}
		br.Browse(mc.Host.Addr(), "/shop", func(p *device.Page, err error) {
			if err != nil {
				res.Note("wap browse: %v", err)
				return
			}
			firstWAP = mc.Net.Sched.Now() - start
			wapBytes = p.WireBytes
			s2 := mc.Net.Sched.Now()
			br.Browse(mc.Host.Addr(), "/shop", func(p *device.Page, err error) {
				if err == nil {
					repeatWAP = mc.Net.Sched.Now() - s2
				}
			})
		})
	})
	if err := mc.Net.Sched.RunFor(5 * time.Minute); err != nil {
		res.Note("run: %v", err)
	}

	// i-mode path: always-on, two fetches on client 1.
	br := mc.Clients[1].BrowserIMode()
	s3 := mc.Net.Sched.Now()
	br.Browse(mc.Host.Addr(), "/shop", func(p *device.Page, err error) {
		if err != nil {
			res.Note("imode browse: %v", err)
			return
		}
		firstIMode = mc.Net.Sched.Now() - s3
		imodeBytes = p.WireBytes
		s4 := mc.Net.Sched.Now()
		br.Browse(mc.Host.Addr(), "/shop", func(p *device.Page, err error) {
			if err == nil {
				repeatIMode = mc.Net.Sched.Now() - s4
			}
		})
	})
	if err := mc.Net.Sched.RunFor(5 * time.Minute); err != nil {
		res.Note("run: %v", err)
	}

	res.AddRow("First transaction (measured)", fmtDur(firstWAP)+" (incl. WSP session setup)", fmtDur(firstIMode)+" (always-on)")
	res.AddRow("Repeat transaction (measured)", fmtDur(repeatWAP), fmtDur(repeatIMode))
	res.AddRow("Payload on air (measured)", fmt.Sprintf("%s (WMLC)", fmtBytes(wapBytes)), fmt.Sprintf("%s (cHTML)", fmtBytes(imodeBytes)))

	gwStats := mc.WAP.Stats()
	imStats := mc.IMode.Stats()
	res.Note("WAP gateway translated %d HTML pages to WML; i-mode portal filtered %d pages to cHTML",
		gwStats.Translations, imStats.Filtered)
	res.Set("wap_first_ms", float64(firstWAP.Milliseconds()))
	res.Set("imode_first_ms", float64(firstIMode.Milliseconds()))
	res.Set("wap_repeat_ms", float64(repeatWAP.Milliseconds()))
	res.Set("imode_repeat_ms", float64(repeatIMode.Milliseconds()))
	res.Set("wap_bytes", float64(wapBytes))
	res.Set("imode_bytes", float64(imodeBytes))
	return res
}
