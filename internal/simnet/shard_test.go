package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/trace"
)

// echoPort is the fixed service port ring-world nodes answer on.
const echoPort Port = 7

// ringWorld is a P-shard world: one node per shard, cross links joining
// consecutive shards in a ring, a UDP echo service on every node and a
// pinger on every node firing `rounds` traced requests at the next
// shard's node.
type ringWorld struct {
	w     *Sharded
	nodes []*Node
	links []*CrossLink
	got   []int // echo replies received per shard
}

func buildRingWorld(tb testing.TB, shards, rounds int, cfg LinkConfig) *ringWorld {
	tb.Helper()
	rw := &ringWorld{w: NewSharded(42, shards)}
	for k := 0; k < shards; k++ {
		nd := rw.w.Shard(k).NewNode(fmt.Sprintf("ring%d", k))
		rw.nodes = append(rw.nodes, nd)
	}
	for k := 0; k < shards; k++ {
		next := (k + 1) % shards
		cfg := cfg
		cfg.Name = fmt.Sprintf("ring-%d-%d", k, next)
		l, err := rw.w.Cross(rw.nodes[k], rw.nodes[next], cfg)
		if err != nil {
			tb.Fatal(err)
		}
		rw.links = append(rw.links, l)
	}
	rw.got = make([]int, shards)
	for k := 0; k < shards; k++ {
		k := k
		nd := rw.nodes[k]
		next := (k + 1) % shards
		prev := (k - 1 + shards) % shards
		// Out to the next shard on our link's A side; back to the
		// previous shard on its link's B side.
		nd.SetRoute(rw.nodes[next].ID, rw.links[k].IfaceA())
		nd.SetRoute(rw.nodes[prev].ID, rw.links[prev].IfaceB())
		u := UDPOf(nd)
		if err := u.Listen(echoPort, func(from Addr, body any, bytes int) {
			u.Send(echoPort, from, body, bytes)
		}); err != nil {
			tb.Fatal(err)
		}
		replyPort, err := u.ListenAny(func(from Addr, body any, bytes int) {
			rw.got[k]++
		})
		if err != nil {
			tb.Fatal(err)
		}
		sched := nd.Sched()
		tracer := rw.w.Shard(k).Tracer
		dst := Addr{Node: rw.nodes[next].ID, Port: echoPort}
		for i := 0; i < rounds; i++ {
			i := i
			sched.At(time.Duration(i)*10*time.Millisecond, func() {
				ctx := tracer.StartTrace("ring.ping", trace.LayerStation)
				prevCtx := tracer.Swap(ctx)
				u.Send(replyPort, dst, nil, 100)
				tracer.Swap(prevCtx)
				tracer.Finish(ctx)
			})
		}
	}
	return rw
}

// digest captures everything the determinism guarantee covers: the merged
// metrics dump, per-shard clocks and event counts, and the recorded span
// stream.
func (rw *ringWorld) digest() string {
	var b strings.Builder
	b.WriteString(rw.w.Snapshot().String())
	for k := 0; k < rw.w.NumShards(); k++ {
		s := rw.w.Shard(k).Sched
		fmt.Fprintf(&b, "shard%d now=%v executed=%d pending=%d replies=%d\n",
			k, s.Now(), s.Executed(), s.Pending(), rw.got[k])
	}
	for _, sp := range rw.w.Spans() {
		fmt.Fprintf(&b, "span %d/%d %s %v-%v annots=%d\n", sp.Trace, sp.ID, sp.Name, sp.Start, sp.End, sp.NAnnots)
	}
	return b.String()
}

func runRing(tb testing.TB, shards, rounds, workers int, cfg LinkConfig) *ringWorld {
	tb.Helper()
	rw := buildRingWorld(tb, shards, rounds, cfg)
	for k := 0; k < shards; k++ {
		rw.w.Shard(k).Tracer.EnableExport(1)
	}
	if err := rw.w.RunFor(2*time.Second, workers); err != nil {
		tb.Fatal(err)
	}
	return rw
}

var ringCfg = LinkConfig{Rate: 10 * Mbps, Delay: 5 * time.Millisecond}

// TestShardedWorkerInvariance is the core determinism guarantee: the
// worker count picks which goroutine runs a shard's window, never what
// the window computes, so every worker count yields a byte-identical
// world.
func TestShardedWorkerInvariance(t *testing.T) {
	want := runRing(t, 4, 50, 1, ringCfg).digest()
	if want == "" {
		t.Fatal("empty digest")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runRing(t, 4, 50, workers, ringCfg).digest()
		if got != want {
			t.Fatalf("digest differs at workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", workers, want, workers, got)
		}
	}
}

func TestShardedDelivery(t *testing.T) {
	rw := runRing(t, 4, 50, 4, ringCfg)
	for k, n := range rw.got {
		if n != 50 {
			t.Fatalf("shard %d received %d echo replies, want 50", k, n)
		}
	}
	for k, l := range rw.links {
		if l.Delivered[0] != 50 || l.Delivered[1] != 50 {
			t.Fatalf("link %d delivered %v, want 50 each way", k, l.Delivered)
		}
	}
}

func TestShardedLossCounters(t *testing.T) {
	cfg := ringCfg
	cfg.Loss = 0.3
	rw := runRing(t, 3, 100, 2, cfg)
	var delivered, lost uint64
	for _, l := range rw.links {
		delivered += l.Delivered[0] + l.Delivered[1]
		lost += l.Lost[0] + l.Lost[1]
	}
	if lost == 0 || delivered == 0 {
		t.Fatalf("loss model inert: delivered=%d lost=%d", delivered, lost)
	}
	// The loss verdicts and the delivery counters live in different
	// shards' registries; the merged snapshot must carry both.
	snap := rw.w.Snapshot()
	if snap.Counter("s0.simnet.xlink.ring-0-1.lost.ab") != int64(rw.links[0].Lost[0]) {
		t.Fatalf("transmit-side counter missing from source shard prefix:\n%s", snap)
	}
	if snap.Counter("s1.simnet.xlink.ring-0-1.delivered.ab") != int64(rw.links[0].Delivered[0]) {
		t.Fatalf("delivery-side counter missing from destination shard prefix:\n%s", snap)
	}
}

func TestShardedTraceNamespacing(t *testing.T) {
	rw := runRing(t, 3, 20, 3, ringCfg)
	for k := 0; k < 3; k++ {
		lo := uint64(k) << 48
		hi := uint64(k+1) << 48
		spans := rw.w.Shard(k).Tracer.Spans()
		if len(spans) == 0 {
			t.Fatalf("shard %d recorded no spans", k)
		}
		sawCross := false
		for _, sp := range spans {
			if uint64(sp.ID) <= lo || uint64(sp.ID) >= hi || uint64(sp.Trace) <= lo || uint64(sp.Trace) >= hi {
				t.Fatalf("shard %d span %d/%d outside its ID band [%d, %d)", k, sp.Trace, sp.ID, lo, hi)
			}
			for i := 0; i < int(sp.NAnnots); i++ {
				if sp.Annots[i].Kind == "xshard" {
					sawCross = true
				}
			}
		}
		if !sawCross {
			t.Fatalf("shard %d has no xshard annotation on its crossing spans", k)
		}
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, rw.w.Spans()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty Perfetto export")
	}
}

func TestWrapNetworkMatchesSerial(t *testing.T) {
	build := func() (*Network, *Node) {
		net := NewNetwork(NewScheduler(7))
		a := net.NewNode("a")
		b := net.NewNode("b")
		l := Connect(a, b, LinkConfig{Name: "ab", Rate: 10 * Mbps, Delay: time.Millisecond})
		a.SetDefaultRoute(l.IfaceA())
		b.SetDefaultRoute(l.IfaceB())
		ub := UDPOf(b)
		if err := ub.Listen(echoPort, func(from Addr, body any, bytes int) {
			ub.Send(echoPort, from, body, bytes)
		}); err != nil {
			t.Fatal(err)
		}
		ua := UDPOf(a)
		port, err := ua.ListenAny(func(from Addr, body any, bytes int) {})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			i := i
			net.Sched.At(time.Duration(i)*5*time.Millisecond, func() {
				ua.Send(port, Addr{Node: b.ID, Port: echoPort}, nil, 64)
			})
		}
		return net, a
	}

	serial, _ := build()
	if err := serial.Sched.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	wrappedNet, _ := build()
	w := WrapNetwork(wrappedNet)
	if err := w.RunFor(time.Second, 4); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Snapshot().String(), serial.Metrics.Snapshot().String(); got != want {
		t.Fatalf("wrapped run diverged from serial:\n--- serial ---\n%s\n--- wrapped ---\n%s", want, got)
	}
	if w.Executed() != serial.Sched.Executed() {
		t.Fatalf("executed %d != serial %d", w.Executed(), serial.Sched.Executed())
	}
}

func TestShardedLookaheadValidation(t *testing.T) {
	rw := buildRingWorld(t, 2, 1, ringCfg)
	if rw.w.Lookahead() != 5*time.Millisecond {
		t.Fatalf("auto lookahead %v, want 5ms", rw.w.Lookahead())
	}
}

func TestCrossValidation(t *testing.T) {
	w := NewSharded(1, 2)
	a := w.Shard(0).NewNode("a")
	b := w.Shard(0).NewNode("b")
	c := w.Shard(1).NewNode("c")
	if _, err := w.Cross(a, b, ringCfg); err == nil {
		t.Fatal("same-shard Cross not rejected")
	}
	if _, err := w.Cross(a, c, LinkConfig{Rate: Mbps}); err == nil {
		t.Fatal("zero-delay Cross not rejected")
	}
	other := NewNetwork(NewScheduler(1))
	d := other.NewNode("d")
	if _, err := w.Cross(a, d, ringCfg); err == nil {
		t.Fatal("foreign-network Cross not rejected")
	}
	if _, err := w.Cross(a, c, ringCfg); err != nil {
		t.Fatal(err)
	}
}

func TestShardedStop(t *testing.T) {
	rw := buildRingWorld(t, 3, 100, ringCfg)
	rw.w.Shard(1).Sched.After(25*time.Millisecond, rw.w.Stop)
	err := rw.w.RunFor(2*time.Second, 3)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunFor after Stop = %v, want ErrStopped", err)
	}
	if rw.w.Now() >= 2*time.Second {
		t.Fatalf("world ran to the horizon despite Stop (now=%v)", rw.w.Now())
	}

	// A single shard scheduler stopping also halts the world.
	rw2 := buildRingWorld(t, 3, 100, ringCfg)
	sched := rw2.w.Shard(2).Sched
	sched.After(25*time.Millisecond, sched.Stop)
	if err := rw2.w.RunFor(2*time.Second, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("RunFor after shard Stop = %v, want ErrStopped", err)
	}

	// The world is reusable after a stop: a fresh RunFor resumes.
	if err := rw.w.RunFor(100*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
}

// TestShardedResume: splitting one horizon into many RunUntil calls must
// not change the outcome (cross records produced in the final window are
// sealed into their destination schedulers between calls).
func TestShardedResume(t *testing.T) {
	want := runRing(t, 3, 40, 2, ringCfg).digest()
	rw := buildRingWorld(t, 3, 40, ringCfg)
	for k := 0; k < 3; k++ {
		rw.w.Shard(k).Tracer.EnableExport(1)
	}
	for i := 0; i < 8; i++ {
		if err := rw.w.RunFor(250*time.Millisecond, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := rw.digest(); got != want {
		t.Fatalf("chunked run diverged:\n--- one call ---\n%s\n--- 8 calls ---\n%s", want, got)
	}
}
