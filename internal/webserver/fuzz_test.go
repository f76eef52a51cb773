package webserver

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// Property: the message parser never panics on arbitrary bytes — it either
// parses, waits for more input, or reports ErrMalformed.
func TestParserNeverPanicsProperty(t *testing.T) {
	prop := func(chunks [][]byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p := &parser{
			onRequest:  func(*Request) {},
			onResponse: func(*Response) {},
			onError:    func(error) {},
		}
		for _, c := range chunks {
			p.feed(c)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: a request survives arbitrary re-chunking of its wire bytes,
// including a 64 KiB body whose chunks cross from the head buffer into
// the body buffer.
func TestParserChunkingInvariance(t *testing.T) {
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, req := range []*Request{{
		Method:  "POST",
		Path:    "/pay/authorize",
		Query:   map[string]string{"a": "b c", "x": "1&2"},
		Headers: map[string]string{"content-type": TypeJSON, "x-token": "t"},
		Body:    []byte(`{"amount": 12, "note": "\r\n\r\n tricky"}`),
	}, {
		Method:  "POST",
		Path:    "/upload",
		Query:   map[string]string{"a": "b c", "x": "1&2"},
		Headers: map[string]string{"content-type": TypeBytes, "x-token": "t"},
		Body:    big,
	}} {
		wire := EncodeRequest(req)
		prop := func(cuts []uint16) bool {
			var got *Request
			p := &parser{onRequest: func(r *Request) { got = r }}
			rest := wire
			for _, c := range cuts {
				if len(rest) == 0 {
					break
				}
				n := int(c) % len(rest)
				if n == 0 {
					n = 1
				}
				p.feed(rest[:n])
				rest = rest[n:]
			}
			p.feed(rest)
			if got == nil {
				return false
			}
			return got.Method == "POST" && got.Path == req.Path &&
				got.Query["a"] == "b c" && got.Query["x"] == "1&2" &&
				got.Header("x-token") == "t" && bytes.Equal(got.Body, req.Body)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", req.Path, err)
		}
	}
}

// Adversarial corpus for the HTTP-like parser: no input panics, and each
// one parses, waits for more bytes, or fails with ErrMalformed as listed.
func TestParserAdversarialCorpus(t *testing.T) {
	const (
		waits = iota
		parses
		malformed
	)
	corpus := []struct {
		src  string
		want int
	}{
		{"", waits},
		{"\r\n\r\n", malformed},
		{"GET\r\n\r\n", malformed},
		{"GET / HTTP/1.0\r\nbroken header\r\n\r\n", malformed},
		{"HTTP/1.0 abc OK\r\n\r\n", malformed},
		{"HTTP/1.0\r\n\r\n", malformed},
		{strings.Repeat("A", 100_000) + "\r\n\r\n", malformed},
		{"GET /x?==&&= HTTP/1.0\r\n\r\n", parses},
		{"GET /%zz%%1 HTTP/1.0\r\n\r\n", parses},
		{"POST / HTTP/1.0\r\ncontent-length: 3\r\n\r\nab", waits}, // short body
		// Content-Length must be decimal digits naming a length the
		// message can hold (RFC 9112 §6.3).
		{"GET / HTTP/1.0\r\ncontent-length: -5\r\n\r\n", malformed},
		{"GET / HTTP/1.0\r\ncontent-length: notanumber\r\n\r\nx", malformed},
		{"GET / HTTP/1.0\r\ncontent-length: 9223372036854775807\r\n\r\nabc", malformed},
		{"GET / HTTP/1.0\r\ncontent-length: 99999999999999999999999\r\n\r\n", malformed},
		{"GET / HTTP/1.0\r\ncontent-length: +3\r\n\r\nabc", malformed},
		{"GET / HTTP/1.0\r\ncontent-length:\r\n\r\n", malformed},
		{"HTTP/1.0 200 OK\r\ncontent-length: 1e3\r\n\r\n", malformed},
		{"GET / HTTP/1.0\r\ncontent-length: 0003\r\n\r\nabc", parses},
		// A method that upper-cases to a status line's prefix.
		{"http/1.0 / HTTP/1.0\r\n\r\n", malformed},
	}
	for _, tc := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", tc.src, r)
				}
			}()
			got, failed := waits, 0
			p := &parser{
				onRequest:  func(*Request) { got = parses },
				onResponse: func(*Response) { got = parses },
				onError: func(err error) {
					if errors.Is(err, ErrMalformed) {
						failed++
						got = malformed
					}
				},
			}
			p.feed([]byte(tc.src))
			if got != tc.want || failed > 1 {
				t.Errorf("%.60q: outcome %d (%d errors), want %d", tc.src, got, failed, tc.want)
			}
		}()
	}
}

// Pipelined messages in one buffer must all parse.
func TestParserPipelinedMessages(t *testing.T) {
	var wire []byte
	for i := 0; i < 3; i++ {
		wire = append(wire, EncodeRequest(&Request{Method: "GET", Path: "/a"})...)
	}
	n := 0
	p := &parser{onRequest: func(*Request) { n++ }}
	p.feed(wire)
	if n != 3 {
		t.Errorf("parsed %d pipelined requests, want 3", n)
	}
}

// A delivered body belongs to its message: parsing a pipelined second
// message, however the bytes are split, must not overwrite it.
func TestParserBodyNotAliased(t *testing.T) {
	first := EncodeResponse(Text("first body"))
	second := EncodeResponse(Text("SECOND BODY!"))
	wire := append(append([]byte(nil), first...), second...)
	for cut := 0; cut <= len(wire); cut++ {
		var bodies [][]byte
		p := &parser{onResponse: func(r *Response) { bodies = append(bodies, r.Body) }}
		p.feed(wire[:cut])
		p.feed(wire[cut:])
		if len(bodies) != 2 || string(bodies[0]) != "first body" || string(bodies[1]) != "SECOND BODY!" {
			t.Fatalf("cut %d: bodies %q", cut, bodies)
		}
	}
}

// The parser's cost is linear in the bytes it handles: a 1 MiB response
// fed in 536-byte segments allocates about one copy of its body, not a
// copy of the growing buffer per segment.
func TestParserLinearAlloc(t *testing.T) {
	body := make([]byte, 1<<20)
	wire := EncodeResponse(NewResponse(200, TypeBytes, body))
	var got *Response
	p := &parser{onResponse: func(r *Response) { got = r }}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rest := wire; len(rest) > 0; {
		n := min(536, len(rest))
		p.feed(rest[:n])
		rest = rest[n:]
	}
	runtime.ReadMemStats(&after)
	if got == nil || len(got.Body) != len(body) {
		t.Fatalf("no 1 MiB response parsed")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*uint64(len(body)) {
		t.Errorf("parsing a %d-byte body allocated %d bytes, want <= 3x", len(body), alloc)
	}
}

// parsed is what a parser yields from one input: its messages up to and
// including the first error. A peer that sees an error stops reading,
// so what follows is not part of the contract.
type parsed struct {
	msgs []any
	err  error
}

// parseAll feeds wire to a parser, whole when cuts is empty and otherwise
// in chunks of 1+cuts[i] bytes, the last chunk taking the rest.
func parseAll(wire, cuts []byte, requests bool) parsed {
	var out parsed
	p := &parser{onError: func(err error) { out.err = err }}
	if requests {
		p.onRequest = func(r *Request) { out.msgs = append(out.msgs, r) }
	} else {
		p.onResponse = func(r *Response) { out.msgs = append(out.msgs, r) }
	}
	for _, c := range cuts {
		if len(wire) == 0 || out.err != nil {
			break
		}
		n := min(1+int(c), len(wire))
		p.feed(wire[:n])
		wire = wire[n:]
	}
	if out.err == nil {
		p.feed(wire)
	}
	return out
}

// sameHeaders compares headers as re-encoding leaves them: content-length
// is rewritten from the body, every other header is kept.
func sameHeaders(a, b map[string]string, bodyLen int) bool {
	if b["content-length"] != strconv.Itoa(bodyLen) {
		return false
	}
	a, b = maps.Clone(a), maps.Clone(b)
	delete(a, "content-length")
	delete(b, "content-length")
	return maps.Equal(a, b)
}

// checkChunking fails t unless wire parses to the same messages and error
// whole and in the chunks cuts picks.
func checkChunking(t *testing.T, wire, cuts []byte, requests bool) parsed {
	whole := parseAll(wire, nil, requests)
	chunked := parseAll(wire, cuts, requests)
	if !reflect.DeepEqual(whole, chunked) {
		t.Fatalf("whole input gave %+v, chunks %v gave %+v", whole, cuts, chunked)
	}
	return whole
}

// FuzzParseRequest feeds the request parser arbitrary bytes. It must never
// panic, feeding the input whole and in fuzzer-chosen chunks must give the
// same requests and error, and an accepted request must re-encode and
// re-parse to the same method, path, query, headers and body.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire, cuts []byte) {
		for _, m := range checkChunking(t, wire, cuts, true).msgs {
			r := m.(*Request)
			again, err := ParseRequest(EncodeRequest(r))
			if err != nil {
				t.Fatalf("re-parse of %+v: %v", r, err)
			}
			if again.Method != r.Method || again.Path != r.Path || !maps.Equal(again.Query, r.Query) ||
				!sameHeaders(r.Headers, again.Headers, len(r.Body)) || !bytes.Equal(again.Body, r.Body) {
				t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, r)
			}
		}
	})
}

// FuzzParseResponse is FuzzParseRequest for the response parser: no
// panic, whole and chunked feeds agree, and an accepted response
// re-encodes and re-parses to the same status, headers and body.
func FuzzParseResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire, cuts []byte) {
		for _, m := range checkChunking(t, wire, cuts, false).msgs {
			r := m.(*Response)
			again, err := ParseResponse(EncodeResponse(r))
			if err != nil {
				t.Fatalf("re-parse of %+v: %v", r, err)
			}
			if again.Status != r.Status || !sameHeaders(r.Headers, again.Headers, len(r.Body)) ||
				!bytes.Equal(again.Body, r.Body) {
				t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", again, r)
			}
		}
	})
}
