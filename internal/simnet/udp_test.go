package simnet

import (
	"errors"
	"testing"
	"time"
)

func TestUDPRoundTrip(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps, Delay: time.Millisecond})
	ua, ub := UDPOf(a), UDPOf(b)

	var reply string
	if err := ub.Listen(7, func(from Addr, body any, bytes int) {
		msg, _ := body.(string)
		ub.Send(7, from, "echo:"+msg, bytes)
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := ua.ListenAny(func(from Addr, body any, bytes int) {
		reply, _ = body.(string)
	})
	if err != nil {
		t.Fatalf("ListenAny: %v", err)
	}
	ua.Send(client, Addr{Node: b.ID, Port: 7}, "ping", 4)

	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reply != "echo:ping" {
		t.Errorf("reply = %q, want echo:ping", reply)
	}
}

func TestUDPPortInUse(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	u := UDPOf(a)
	if err := u.Listen(9, func(Addr, any, int) {}); err != nil {
		t.Fatalf("first Listen: %v", err)
	}
	if err := u.Listen(9, func(Addr, any, int) {}); err == nil {
		t.Fatal("second Listen on same port should fail")
	}
	u.Close(9)
	if err := u.Listen(9, func(Addr, any, int) {}); err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
}

func TestUDPEphemeralPortsDistinct(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	u := UDPOf(net.NewNode("a"))
	seen := make(map[Port]bool)
	for i := 0; i < 100; i++ {
		p, err := u.ListenAny(func(Addr, any, int) {})
		if err != nil {
			t.Fatalf("ListenAny: %v", err)
		}
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestUDPUnboundPortDropsAndCounts(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps})
	ua := UDPOf(a)
	UDPOf(b) // bind UDP stack but no ports
	ua.Send(1234, Addr{Node: b.ID, Port: 9999}, "lost", 4)
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", b.Dropped)
	}
}

func TestUDPHeaderOverheadCharged(t *testing.T) {
	net, a, b, l := twoNodes(t, LinkConfig{Rate: Mbps})
	ua, ub := UDPOf(a), UDPOf(b)
	gotBytes := -1
	if err := ub.Listen(5, func(from Addr, body any, bytes int) { gotBytes = bytes }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ua.Send(1000, Addr{Node: b.ID, Port: 5}, nil, 100)
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotBytes != 100 {
		t.Errorf("handler payload bytes = %d, want 100", gotBytes)
	}
	if l.IfaceA().TxBytes != 100+UDPHeaderBytes {
		t.Errorf("wire bytes = %d, want %d", l.IfaceA().TxBytes, 100+UDPHeaderBytes)
	}
}

func TestUDPOfIsIdempotent(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	if UDPOf(a) != UDPOf(a) {
		t.Error("UDPOf returned different stacks for the same node")
	}
}

// TestUDPEphemeralPortsExhausted binds every port of the ephemeral range
// (49152–65535): the next ListenAny must fail with ErrNoEphemeralPort
// instead of scanning forever, and a port released by Close must be
// handed out again.
func TestUDPEphemeralPortsExhausted(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	u := UDPOf(net.NewNode("a"))
	h := func(Addr, any, int) {}
	for i := 0; i < 1<<16-49152; i++ {
		if _, err := u.ListenAny(h); err != nil {
			t.Fatalf("ListenAny %d: %v", i, err)
		}
	}
	if p, err := u.ListenAny(h); !errors.Is(err, ErrNoEphemeralPort) {
		t.Fatalf("ListenAny on a full range = %d, %v; want ErrNoEphemeralPort", p, err)
	}
	u.Close(50000)
	if p, err := u.ListenAny(h); err != nil || p != 50000 {
		t.Fatalf("ListenAny after Close(50000) = %d, %v; want 50000", p, err)
	}
	if p, err := u.ListenAny(h); !errors.Is(err, ErrNoEphemeralPort) {
		t.Fatalf("ListenAny on a full range again = %d, %v; want ErrNoEphemeralPort", p, err)
	}
}
