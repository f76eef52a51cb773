package webserver_test

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

type webTopo struct {
	net    *simnet.Network
	server *webserver.Server
	client *webserver.Client
	cStack *mtcp.Stack
	sNode  *simnet.Node
}

func newWebTopo(t testing.TB) *webTopo {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := net.NewNode("client")
	sn := net.NewNode("server")
	l := simnet.Connect(cn, sn, simnet.LAN)
	cn.SetDefaultRoute(l.IfaceA())
	sn.SetDefaultRoute(l.IfaceB())
	srv, err := webserver.New(mtcp.MustNewStack(sn), 80, mtcp.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cs := mtcp.MustNewStack(cn)
	return &webTopo{
		net:    net,
		server: srv,
		client: webserver.NewClient(cs, mtcp.Options{}),
		cStack: cs,
		sNode:  sn,
	}
}

func (w *webTopo) run(t testing.TB) {
	t.Helper()
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGetRoundTrip(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/hello", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("hi " + r.Query["name"])
	})
	var got *webserver.Response
	var gotErr error
	w.client.Get(w.server.Addr(), "/hello?name=ann", nil, func(r *webserver.Response, err error) {
		got, gotErr = r, err
	})
	w.run(t)
	if gotErr != nil {
		t.Fatalf("Get: %v", gotErr)
	}
	if got.Status != 200 || string(got.Body) != "hi ann" {
		t.Errorf("response = %d %q", got.Status, got.Body)
	}
	if got.Header("Content-Type") != webserver.TypeText {
		t.Errorf("content type = %q", got.Header("Content-Type"))
	}
}

func TestPostBody(t *testing.T) {
	w := newWebTopo(t)
	var received []byte
	w.server.Handle("/submit", func(r *webserver.Request) *webserver.Response {
		received = append([]byte(nil), r.Body...)
		return webserver.NewResponse(200, webserver.TypeJSON, []byte(`{"ok":true}`))
	})
	body := []byte(`{"qty": 3, "item": "widget"}`)
	var got *webserver.Response
	w.client.Post(w.server.Addr(), "/submit", webserver.TypeJSON, body, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Post: %v", err)
			return
		}
		got = r
	})
	w.run(t)
	if string(received) != string(body) {
		t.Errorf("server saw body %q", received)
	}
	if got == nil || got.Status != 200 {
		t.Fatalf("response = %+v", got)
	}
}

func TestNotFound(t *testing.T) {
	w := newWebTopo(t)
	var got *webserver.Response
	w.client.Get(w.server.Addr(), "/missing", nil, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got = r
	})
	w.run(t)
	if got == nil || got.Status != 404 {
		t.Fatalf("status = %+v, want 404", got)
	}
	if w.server.Stats().NotFound != 1 {
		t.Errorf("NotFound stat = %d", w.server.Stats().NotFound)
	}
}

func TestPrefixRouting(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/api/", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("api")
	})
	w.server.Handle("/api/v2/", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("v2")
	})
	w.server.Handle("/api/v2/exact", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("exact")
	})
	cases := map[string]string{
		"/api/x":        "api",
		"/api/v2/x":     "v2",
		"/api/v2/exact": "exact",
	}
	for path, want := range cases {
		var got string
		w.client.Get(w.server.Addr(), path, nil, func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("Get %s: %v", path, err)
				return
			}
			got = string(r.Body)
		})
		w.run(t)
		if got != want {
			t.Errorf("route %s = %q, want %q", path, got, want)
		}
	}
}

func TestContentNegotiation(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/page", func(r *webserver.Request) *webserver.Response {
		switch {
		case r.Accepts(webserver.TypeWML):
			return webserver.NewResponse(200, webserver.TypeWML, []byte("<wml/>"))
		case r.Accepts(webserver.TypeHTML):
			return webserver.HTML("<html/>")
		default:
			return webserver.Error(406, "no acceptable representation")
		}
	})
	cases := []struct {
		accept string
		want   string
	}{
		{"text/vnd.wap.wml", webserver.TypeWML},
		{"text/html", webserver.TypeHTML},
		{"text/*", webserver.TypeWML}, // first match wins
		{"", webserver.TypeWML},
	}
	for _, tc := range cases {
		var got string
		hdr := map[string]string{}
		if tc.accept != "" {
			hdr["accept"] = tc.accept
		}
		w.client.Get(w.server.Addr(), "/page", hdr, func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = r.Header("content-type")
		})
		w.run(t)
		if got != tc.want {
			t.Errorf("accept %q -> %q, want %q", tc.accept, got, tc.want)
		}
	}
}

func TestLargeResponseBody(t *testing.T) {
	w := newWebTopo(t)
	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte(i)
	}
	w.server.Handle("/big", func(r *webserver.Request) *webserver.Response {
		return webserver.NewResponse(200, webserver.TypeBytes, big)
	})
	var got []byte
	w.client.Get(w.server.Addr(), "/big", nil, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got = r.Body
	})
	w.run(t)
	if len(got) != len(big) {
		t.Fatalf("body = %d bytes, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("body corrupted at %d", i)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/n", func(r *webserver.Request) *webserver.Response {
		return webserver.Text(r.Query["i"])
	})
	const n = 20
	got := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		w.client.Do(w.server.Addr(), &webserver.Request{
			Method: "GET", Path: "/n", Query: map[string]string{"i": string(rune('a' + i))},
		}, func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			got[i] = string(r.Body)
		})
	}
	w.run(t)
	for i := 0; i < n; i++ {
		if got[i] != string(rune('a'+i)) {
			t.Errorf("response %d = %q", i, got[i])
		}
	}
	if w.server.Stats().Requests != n {
		t.Errorf("Requests = %d, want %d", w.server.Stats().Requests, n)
	}
}

func TestNilHandlerResponseIs500(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/nil", func(r *webserver.Request) *webserver.Response { return nil })
	var status int
	w.client.Get(w.server.Addr(), "/nil", nil, func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		status = r.Status
	})
	w.run(t)
	if status != 500 {
		t.Errorf("status = %d, want 500", status)
	}
}

// A peer that sends a Content-Length too large to index gets a 400, and
// the server keeps running.
func TestOverflowContentLengthIs400(t *testing.T) {
	w := newWebTopo(t)
	w.server.Handle("/", func(r *webserver.Request) *webserver.Response { return webserver.Text("ok") })
	var reply []byte
	w.cStack.Dial(w.server.Addr(), mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnData(func(b []byte) { reply = append(reply, b...) })
		c.Send([]byte("GET / HTTP/1.0\r\ncontent-length: 9223372036854775807\r\n\r\nabc"))
		c.Close()
	})
	w.run(t)
	resp, err := webserver.ParseResponse(reply)
	if err != nil || resp.Status != 400 {
		t.Fatalf("reply %q (%v), want a 400", reply, err)
	}
	if st := w.server.Stats(); st.Errors != 1 || st.Requests != 0 {
		t.Errorf("stats %+v, want 1 error and no request", st)
	}
}

func TestDialFailureSurfacesError(t *testing.T) {
	w := newWebTopo(t)
	var gotErr error
	fired := false
	w.client.Get(simnet.Addr{Node: w.sNode.ID, Port: 9999}, "/x", nil, func(r *webserver.Response, err error) {
		gotErr, fired = err, true
	})
	w.run(t)
	if !fired || gotErr == nil {
		t.Errorf("err = %v (fired=%v); want dial failure", gotErr, fired)
	}
}

// Property: request encode/parse round-trips method, path, query, headers
// and body through the wire format.
func TestRequestWireRoundTripProperty(t *testing.T) {
	prop := func(path string, qk, qv, body string) bool {
		path = "/" + strings.Map(func(r rune) rune {
			if r < 0x21 || r > 0x7e || r == '?' || r == '#' {
				return -1
			}
			return r
		}, path)
		if qk == "" {
			qk = "k"
		}
		req := &webserver.Request{
			Method:  "POST",
			Path:    path,
			Query:   map[string]string{qk: qv},
			Headers: map[string]string{"x-test": "1"},
			Body:    []byte(body),
		}
		wire := webserver.EncodeRequest(req)
		got, err := webserver.ParseRequest(wire)
		if err != nil {
			return false
		}
		return got.Method == "POST" && got.Path == req.Path &&
			got.Query[qk] == qv && got.Header("x-test") == "1" &&
			string(got.Body) == body
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
