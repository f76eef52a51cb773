package main

import (
	"strings"

	"mcommerce/internal/metrics"
)

// counts are the per-layer work counters the benchmark reads from a
// world's telemetry registry, summed over every instance and shard.
type counts struct {
	events         float64 // simnet.sched.executed
	linkHops       float64 // wired link and cross-shard link deliveries
	linkDrops      float64 // wired link losses and queue/down drops
	segments       float64 // mtcp segments sent
	tcpRetransmits float64
	webRequests    float64 // requests parsed by any web server
	webBytes       float64 // response bytes served
	imodeRequests  float64
	chtml          float64 // i-mode HTML->cHTML filterings
	wtpInvokes     float64
	wtpRetransmits float64
	wmlc           float64 // WAP HTML->WML(C) translations
	cellDelivered  float64
	cellLost       float64
	wlanDelivered  float64
	wlanLost       float64
	dbCommits      float64
	dbAborts       float64
	replShips      float64
	conflicts      float64 // mobiledb sync conflicts seen by servers
}

// countsOf reads the counters out of a registry snapshot.
func countsOf(s metrics.Snapshot) counts {
	var c counts
	for _, e := range s.Entries {
		name := stripShard(e.Name)
		v := float64(e.Value)
		dot := strings.LastIndexByte(name, '.')
		last := name[dot+1:]
		switch {
		case name == "simnet.sched.executed":
			c.events += v
		case strings.HasPrefix(name, "simnet.link.") || strings.HasPrefix(name, "simnet.xlink."):
			// simnet.link.<name>.<counter>.<direction>
			switch counter := name[strings.LastIndexByte(name[:dot], '.')+1 : dot]; counter {
			case "delivered":
				c.linkHops += v
			case "lost", "dropped_queue", "dropped_down":
				c.linkDrops += v
			}
		case strings.HasPrefix(name, "mtcp."):
			switch last {
			case "segments_sent":
				c.segments += v
			case "retransmits":
				c.tcpRetransmits += v
			}
		case strings.HasPrefix(name, "web.server."):
			switch last {
			case "requests":
				c.webRequests += v
			case "bytes_served":
				c.webBytes += v
			}
		case strings.HasPrefix(name, "imode.gw."):
			switch last {
			case "requests":
				c.imodeRequests += v
			case "filtered":
				c.chtml += v
			}
		case strings.HasPrefix(name, "wap.wtp."):
			switch last {
			case "invokes":
				c.wtpInvokes += v
			case "retransmits":
				c.wtpRetransmits += v
			}
		case strings.HasPrefix(name, "wap.gw.") && last == "translations":
			c.wmlc += v
		case strings.HasPrefix(name, "cellular."):
			switch last {
			case "delivered":
				c.cellDelivered += v
			case "lost_errors", "lost_range":
				c.cellLost += v
			}
		case strings.HasPrefix(name, "wireless.lan."):
			switch last {
			case "delivered":
				c.wlanDelivered += v
			case "lost_errors", "lost_range":
				c.wlanLost += v
			}
		case name == "host.db.commits":
			c.dbCommits += v
		case name == "host.db.aborts":
			c.dbAborts += v
		case strings.HasPrefix(name, "core.db.repl.") && last == "ships":
			c.replShips += v
		case strings.HasPrefix(name, "mobiledb.sync.") && last == "conflicts":
			c.conflicts += v
		}
	}
	return c
}

// stripShard drops the "s<k>." prefix a sharded world's merged snapshot
// puts on every shard's entries.
func stripShard(name string) string {
	if len(name) < 3 || name[0] != 's' {
		return name
	}
	i := 1
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i > 1 && i < len(name) && name[i] == '.' {
		return name[i+1:]
	}
	return name
}

// hops counts every packet delivery across a link or radio medium.
func (c counts) hops() float64 { return c.linkHops + c.cellDelivered + c.wlanDelivered }

// sub returns c minus b, field by field.
func (c counts) sub(b counts) counts {
	return c.zip(b, func(x, y float64) float64 { return x - y })
}

// add returns c plus b, field by field.
func (c counts) add(b counts) counts {
	return c.zip(b, func(x, y float64) float64 { return x + y })
}

// scale returns c with every field multiplied by k.
func (c counts) scale(k float64) counts {
	return c.zip(c, func(x, _ float64) float64 { return x * k })
}

func (c counts) zip(b counts, f func(x, y float64) float64) counts {
	return counts{
		events: f(c.events, b.events), linkHops: f(c.linkHops, b.linkHops),
		linkDrops: f(c.linkDrops, b.linkDrops), segments: f(c.segments, b.segments),
		tcpRetransmits: f(c.tcpRetransmits, b.tcpRetransmits),
		webRequests:    f(c.webRequests, b.webRequests), webBytes: f(c.webBytes, b.webBytes),
		imodeRequests: f(c.imodeRequests, b.imodeRequests), chtml: f(c.chtml, b.chtml),
		wtpInvokes: f(c.wtpInvokes, b.wtpInvokes), wtpRetransmits: f(c.wtpRetransmits, b.wtpRetransmits),
		wmlc: f(c.wmlc, b.wmlc), cellDelivered: f(c.cellDelivered, b.cellDelivered),
		cellLost: f(c.cellLost, b.cellLost), wlanDelivered: f(c.wlanDelivered, b.wlanDelivered),
		wlanLost: f(c.wlanLost, b.wlanLost), dbCommits: f(c.dbCommits, b.dbCommits),
		dbAborts: f(c.dbAborts, b.dbAborts), replShips: f(c.replShips, b.replShips),
		conflicts: f(c.conflicts, b.conflicts),
	}
}
