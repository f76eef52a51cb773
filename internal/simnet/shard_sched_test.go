package simnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// heteroRing builds a 3-shard ring whose 2-0 leg is four times slower
// than the others (5ms, 5ms, 20ms): records on the slow leg stay in
// their ring across several window boundaries before they are due.
func heteroRing(tb testing.TB, rounds int) *ringWorld {
	tb.Helper()
	rw := &ringWorld{w: NewSharded(42, 3)}
	for k := 0; k < 3; k++ {
		rw.nodes = append(rw.nodes, rw.w.Shard(k).NewNode(fmt.Sprintf("ring%d", k)))
	}
	delays := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	for k := 0; k < 3; k++ {
		next := (k + 1) % 3
		cfg := LinkConfig{Rate: 10 * Mbps, Delay: delays[k], Name: fmt.Sprintf("ring-%d-%d", k, next)}
		l, err := rw.w.Cross(rw.nodes[k], rw.nodes[next], cfg)
		if err != nil {
			tb.Fatal(err)
		}
		rw.links = append(rw.links, l)
	}
	rw.got = make([]int, 3)
	for k := 0; k < 3; k++ {
		k := k
		nd := rw.nodes[k]
		next := (k + 1) % 3
		prev := (k + 2) % 3
		nd.SetRoute(rw.nodes[next].ID, rw.links[k].IfaceA())
		nd.SetRoute(rw.nodes[prev].ID, rw.links[prev].IfaceB())
		u := UDPOf(nd)
		if err := u.Listen(echoPort, func(from Addr, body any, bytes int) {
			u.Send(echoPort, from, body, bytes)
		}); err != nil {
			tb.Fatal(err)
		}
		replyPort := u.ListenAny(func(from Addr, body any, bytes int) {
			rw.got[k]++
		})
		sched := nd.Sched()
		dst := Addr{Node: rw.nodes[next].ID, Port: echoPort}
		for i := 0; i < rounds; i++ {
			sched.At(time.Duration(i)*10*time.Millisecond, func() {
				u.Send(replyPort, dst, nil, 100)
			})
		}
	}
	return rw
}

// TestShardedHeteroDelayWorkerInvariance: cross links of different
// delays share one window width, the smallest, and the run is identical
// at any worker count.
func TestShardedHeteroDelayWorkerInvariance(t *testing.T) {
	if got := heteroRing(t, 1).w.Lookahead(); got != 5*time.Millisecond {
		t.Fatalf("lookahead %v, want the 5ms minimum cross delay", got)
	}
	var want string
	for _, workers := range []int{1, 3} {
		rw := heteroRing(t, 50)
		if err := rw.w.RunFor(2*time.Second, workers); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = rw.digest()
			snap := rw.w.EngineSnapshot()
			windows := snap.Counter("simnet.shard.windows")
			syncs := snap.Counter("simnet.shard.barrier_waits")
			if windows == 0 || syncs == 0 {
				t.Fatalf("engine counters inert: windows=%d syncs=%d\n%s", windows, syncs, snap)
			}
			for _, name := range []string{"simnet.shard.windows", "simnet.shard.barrier_waits",
				"simnet.shard.steals"} {
				if !strings.Contains(snap.String(), name) {
					t.Fatalf("engine snapshot missing %s:\n%s", name, snap)
				}
			}
			if snap.Counter("simnet.shard.steals") != 0 {
				t.Fatalf("steals = %d at one lane, want 0", snap.Counter("simnet.shard.steals"))
			}
		} else if got := rw.digest(); got != want {
			t.Fatalf("heterogeneous delays broke worker invariance at workers=%d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestShardedCausalityCheck: a cross-shard record that would arrive
// before its destination's clock must fail the run with a deterministic
// error at drain time and freeze the destination shard, rather than
// deliver an event into the past.
func TestShardedCausalityCheck(t *testing.T) {
	rw := buildRingWorld(t, 2, 1, ringCfg)
	w := rw.w
	if err := w.RunFor(100*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	l := rw.links[0] // ring-0-1: shard 0 on side A, shard 1 on side B
	w.xseq[0]++
	r := w.rings[0][1]
	r.recs = append(r.recs, xrec{
		at: 50 * time.Millisecond, seq: w.xseq[0], src: 0, dir: 0, link: l, dst: l.IfaceB(),
		p: Packet{
			Src:   Addr{Node: rw.nodes[0].ID, Port: echoPort},
			Dst:   Addr{Node: rw.nodes[1].ID, Port: echoPort},
			Bytes: 100, TTL: 8,
		},
	})
	err := w.RunFor(time.Second, 2)
	if err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("record in the destination's past: RunFor = %v, want a causality error", err)
	}
	if !strings.Contains(err.Error(), "before shard 1's clock 100ms") {
		t.Fatalf("causality error does not name the shard and clock: %v", err)
	}
	if now := w.Shard(1).Sched.Now(); now != 100*time.Millisecond {
		t.Fatalf("shard 1 ran on to %v after the violation, want frozen at 100ms", now)
	}
	if w.Now() != 100*time.Millisecond {
		t.Fatalf("world clock %v, want the frozen shard's 100ms", w.Now())
	}
}

// TestShardedEightShardSteals: a wide world at full lane count exercises
// the work-stealing and relaxed-scoreboard paths (verify.sh runs this
// under -race); results must match the serial run byte for byte.
func TestShardedEightShardSteals(t *testing.T) {
	want := runRing(t, 8, 30, 1, ringCfg).digest()
	got := runRing(t, 8, 30, 8, ringCfg).digest()
	if got != want {
		t.Fatalf("8-lane run diverged from serial:\n--- 1 ---\n%s\n--- 8 ---\n%s", want, got)
	}
}

// TestShardedStopDuringRun: regression for the executor wedging when
// Stop lands while shards are mid-window (the barrier engine could park
// sibling workers at a phase barrier that never filled). The scoreboard
// engine must drain in-flight tasks, seal and return promptly — and the
// world must stay usable.
func TestShardedStopDuringRun(t *testing.T) {
	rw := buildRingWorld(t, 6, 100_000, ringCfg)
	done := make(chan error, 1)
	go func() { done <- rw.w.RunFor(1000*time.Second, 4) }()
	deadline := time.After(30 * time.Second)
	var err error
	for stopped := false; !stopped; {
		rw.w.Stop()
		select {
		case err = <-done:
			stopped = true
		case <-deadline:
			t.Fatal("executor wedged: Stop during a run did not terminate RunFor")
		case <-time.After(time.Millisecond):
		}
	}
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunFor after Stop = %v, want ErrStopped", err)
	}
	// The world resumes cleanly after the interrupted run.
	if err := rw.w.RunFor(50*time.Millisecond, 4); err != nil {
		t.Fatal(err)
	}
}
