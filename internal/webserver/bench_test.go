package webserver

import (
	"testing"

	"mcommerce/internal/mtcp"
)

// BenchmarkParseResponseChunked64KiB is the webserver receive path of a
// download: a 64 KiB response fed to the parser in segments of mtcp's
// default MSS, as a client connection delivers it.
func BenchmarkParseResponseChunked64KiB(b *testing.B) {
	wire := EncodeResponse(NewResponse(200, TypeBytes, make([]byte, 64<<10)))
	mss := mtcp.DefaultOptions().MSS
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		p := &parser{onResponse: func(*Response) { n++ }}
		for rest := wire; len(rest) > 0; {
			k := min(mss, len(rest))
			p.feed(rest[:k])
			rest = rest[k:]
		}
		if n != 1 {
			b.Fatalf("parsed %d responses, want 1", n)
		}
	}
}

// BenchmarkEncodeResponse64KiB is the webserver send path: encoding a
// 64 KiB response to its wire form.
func BenchmarkEncodeResponse64KiB(b *testing.B) {
	resp := NewResponse(200, TypeBytes, make([]byte, 64<<10))
	resp.Headers["cache-control"] = "no-store"
	b.SetBytes(int64(len(EncodeResponse(resp))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeResponse(resp)
	}
}
