package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// HandoffSweep quantifies the paper's "frequent handoffs and
// disconnections" cause of mobile TCP trouble: a fixed-size download runs
// under periodic connectivity blackouts at increasing frequency, with and
// without the fast-retransmission-on-reconnection signal of [2]. The shape
// to reproduce: completion time grows with disconnection frequency, and
// the reconnection signal recovers most of the loss.
func HandoffSweep(seed int64) *Result {
	res := newResult("E-TCP(c)", "Disconnection-frequency sweep (1.5 MB download, 400 ms blackouts)",
		"blackout period", "standard TCP", "with reconnect signal [2]", "improvement")

	const size = 1536 << 10
	periods := []time.Duration{0, 5 * time.Second, 2 * time.Second, time.Second}
	for _, period := range periods {
		plain := handoffRun(seed, period, size, false)
		fast := handoffRun(seed, period, size, true)
		label := "none"
		if period > 0 {
			label = fmt.Sprintf("every %s", period)
		}
		improvement := "-"
		if period > 0 && fast > 0 {
			improvement = fmt.Sprintf("%.0f%%", 100*(1-float64(fast)/float64(plain)))
		}
		res.AddRow(label, fmtDur(plain), fmtDur(fast), improvement)
		key := fmt.Sprintf("period_%s", period)
		res.Set(key+"/plain_ms", float64(plain.Milliseconds()))
		res.Set(key+"/fast_ms", float64(fast.Milliseconds()))
	}
	res.Note("each blackout kills all in-flight segments; without [2] the sender waits out its (possibly backed-off) RTO after every reconnection")
	res.Note("the crossover is real: at rare disconnections the RTO fires soon anyway and [2]'s provoked fast retransmit just shrinks the window (slightly negative); as disconnections become frequent, compounded RTO backoff dominates and [2] wins big")
	return res
}

// handoffRun transfers size bytes with a 400 ms blackout every period
// (period 0 means no blackouts) and returns completion time.
func handoffRun(seed int64, period time.Duration, size int, signal bool) time.Duration {
	p := newTCPPath(seed, 0, "")
	var mobileConn *mtcp.Conn
	got := 0
	var doneAt time.Duration
	if err := p.ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		mobileConn = c
		c.OnData(func(b []byte) {
			got += len(b)
			if got >= size && doneAt == 0 {
				doneAt = p.net.Sched.Now()
				p.net.Sched.Stop()
			}
		})
	}); err != nil {
		return 0
	}
	p.fs.Dial(simnet.Addr{Node: p.mobile.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err == nil {
			c.Send(make([]byte, size))
		}
	})
	if period > 0 {
		const blackout = 400 * time.Millisecond
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			p.net.Sched.At(at, func() {
				if doneAt != 0 {
					return
				}
				p.wireless.IfaceB().Up = false
				p.net.Sched.After(blackout, func() {
					p.wireless.IfaceB().Up = true
					if signal && mobileConn != nil {
						mobileConn.SignalReconnect()
					}
				})
				schedule(at + period)
			})
		}
		// First blackout early so even fast transfers meet disconnections.
		schedule(time.Second)
	}
	if err := p.net.Sched.RunUntil(30 * time.Minute); err != nil && err != simnet.ErrStopped {
		return 0
	}
	if doneAt == 0 {
		return 30 * time.Minute
	}
	return doneAt
}
