// Roaming — Section 5.2 live: a commuter's handheld downloads a movie
// trailer (Table 1's entertainment row) while moving between two wireless
// subnets. Mobile IP's home agent tunnels the datagrams to the foreign
// agent's care-of address and the TCP connection — hence the download —
// survives the move. The handset signals its transport layer on
// reconnection ([2]'s fast retransmission) so the transfer resumes without
// waiting out a backed-off retransmission timer.
//
//	go run ./examples/roaming
package main

import (
	"fmt"
	"os"
	"time"

	"mcommerce/internal/mobileip"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roaming:", err)
		os.Exit(1)
	}
}

func run() error {
	net := simnet.NewNetwork(simnet.NewScheduler(3))

	// Internetwork: media server – home subnet – backbone – foreign subnet.
	server := net.NewNode("media-server")
	home := net.NewNode("home-router")
	foreign := net.NewNode("foreign-router")
	handset := net.NewNode("handset")

	lSrv := simnet.Connect(server, home, simnet.LAN)
	lBack := simnet.Connect(home, foreign, simnet.WAN)
	lHome := simnet.Connect(home, handset, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 2 * time.Millisecond})
	lForeign := simnet.Connect(foreign, handset, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 2 * time.Millisecond})
	lForeign.IfaceB().Up = false // not attached there yet

	server.SetDefaultRoute(lSrv.IfaceA())
	home.SetRoute(server.ID, lSrv.IfaceB())
	home.SetRoute(handset.ID, lHome.IfaceA())
	home.SetDefaultRoute(lBack.IfaceA())
	foreign.SetDefaultRoute(lBack.IfaceB())
	foreign.SetRoute(handset.ID, lForeign.IfaceA())
	handset.SetDefaultRoute(lHome.IfaceB())

	ha := mobileip.NewHomeAgent(home, []byte("home-sa-key"))
	fa := mobileip.NewForeignAgent(foreign)
	mip, err := mobileip.NewClient(handset, mobileip.Config{
		HomeAgent: simnet.Addr{Node: home.ID, Port: mobileip.MobileIPPort},
		AuthKey:   []byte("home-sa-key"),
	})
	if err != nil {
		return err
	}

	// The download: 600 KB pushed from the media server.
	const size = 600 << 10
	ss := mtcp.MustNewStack(server)
	hs := mtcp.MustNewStack(handset)
	sched := net.Sched

	got := 0
	var doneAt time.Duration
	var conn *mtcp.Conn
	if err := hs.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		conn = c
		c.OnData(func(b []byte) {
			got += len(b)
			if got >= size && doneAt == 0 {
				doneAt = sched.Now()
			}
		})
	}); err != nil {
		return err
	}
	ss.Dial(simnet.Addr{Node: handset.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			fatal("dial", err)
		}
		fmt.Printf("t=%-8s download started (600 KiB trailer)\n", sched.Now().Round(time.Millisecond))
		c.Send(make([]byte, size))
	})

	// Mid-download the commuter leaves home coverage...
	sched.At(500*time.Millisecond, func() {
		lHome.IfaceB().Up = false
		fmt.Printf("t=%-8s left home subnet (%d KiB received so far)\n",
			sched.Now().Round(time.Millisecond), got>>10)
	})
	// ...and attaches to the foreign subnet 1.2 s later.
	sched.At(1700*time.Millisecond, func() {
		lForeign.IfaceB().Up = true
		handset.SetDefaultRoute(lForeign.IfaceB())
		fmt.Printf("t=%-8s attached to foreign subnet; registering with FA\n", sched.Now().Round(time.Millisecond))
		mip.Register(fa.Addr(), func(err error) {
			fatal("mobile ip registration", err)
			fmt.Printf("t=%-8s registration accepted; HA now tunnels to care-of %v\n",
				sched.Now().Round(time.Millisecond), fa.Addr())
			if conn != nil {
				conn.SignalReconnect() // [2]: fast retransmission after handoff
			}
		})
	})

	if err := sched.RunFor(2 * time.Minute); err != nil {
		return err
	}
	st := ha.Stats()
	fmt.Printf("t=%-8s download complete: %d/%d KiB\n", doneAt.Round(time.Millisecond), got>>10, size>>10)
	fmt.Printf("home agent: %d registrations, %d datagrams tunneled (%d KiB through the tunnel)\n",
		st.Registrations, st.Tunneled, st.TunneledBytes>>10)
	if got != size {
		return fmt.Errorf("transfer incomplete: %d/%d", got, size)
	}
	return nil
}

func fatal(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "roaming: %s: %v\n", what, err)
		os.Exit(1)
	}
}
