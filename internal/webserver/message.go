package webserver

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"

	"mcommerce/internal/simnet"
)

// Common media types used for content negotiation across the system.
const (
	TypeHTML  = "text/html"
	TypeWML   = "text/vnd.wap.wml"
	TypeWMLC  = "application/vnd.wap.wmlc"
	TypeCHTML = "text/chtml"
	TypeJSON  = "application/json"
	TypeText  = "text/plain"
	TypeBytes = "application/octet-stream"
)

// ErrMalformed reports an unparseable message.
var ErrMalformed = errors.New("webserver: malformed message")

// Request is an HTTP/1.0-style request.
type Request struct {
	Method  string
	Path    string            // without query string
	Query   map[string]string // decoded query parameters
	Headers map[string]string // canonicalized to lower-case names
	Body    []byte
	// Remote is the requesting peer (filled in by the server).
	Remote simnet.Addr
}

// Header returns a header value by case-insensitive name.
func (r *Request) Header(name string) string { return r.Headers[strings.ToLower(name)] }

// Accepts reports whether the request's Accept header admits the media
// type. An absent Accept header accepts everything.
func (r *Request) Accepts(mediaType string) bool {
	acc := r.Header("Accept")
	if acc == "" {
		return true
	}
	for _, part := range strings.Split(acc, ",") {
		part = strings.TrimSpace(part)
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = strings.TrimSpace(part[:i])
		}
		if part == "*/*" || part == mediaType {
			return true
		}
		if strings.HasSuffix(part, "/*") && strings.HasPrefix(mediaType, strings.TrimSuffix(part, "*")) {
			return true
		}
	}
	return false
}

// Response is an HTTP/1.0-style response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// Header returns a response header by case-insensitive name.
func (r *Response) Header(name string) string { return r.Headers[strings.ToLower(name)] }

// NewResponse builds a response with a content type.
func NewResponse(status int, contentType string, body []byte) *Response {
	return &Response{
		Status:  status,
		Headers: map[string]string{"content-type": contentType},
		Body:    body,
	}
}

// Text returns a 200 text/plain response.
func Text(body string) *Response { return NewResponse(200, TypeText, []byte(body)) }

// HTML returns a 200 text/html response.
func HTML(body string) *Response { return NewResponse(200, TypeHTML, []byte(body)) }

// Error returns an error response with a plain-text body.
func Error(status int, msg string) *Response { return NewResponse(status, TypeText, []byte(msg)) }

// status returns the status line's code and reason phrase for the status
// codes the system uses.
func status(code int) string {
	switch code {
	case 200:
		return "200 OK"
	case 302:
		return "302 Found"
	case 400:
		return "400 Bad Request"
	case 401:
		return "401 Unauthorized"
	case 403:
		return "403 Forbidden"
	case 404:
		return "404 Not Found"
	case 405:
		return "405 Method Not Allowed"
	case 409:
		return "409 Conflict"
	case 500:
		return "500 Internal Server Error"
	case 502:
		return "502 Bad Gateway"
	case 503:
		return "503 Service Unavailable"
	default:
		return strconv.Itoa(code) + " Status"
	}
}

// EncodeRequest serializes a request to its wire form.
func EncodeRequest(r *Request) []byte {
	target := r.Path
	if len(r.Query) > 0 {
		keys := make([]string, 0, len(r.Query))
		for k := range r.Query {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, escapeQuery(k)+"="+escapeQuery(r.Query[k]))
		}
		target += "?" + strings.Join(parts, "&")
	}
	return encode(r.Headers, r.Body, r.Method, " ", target, " HTTP/1.0\r\n")
}

// EncodeResponse serializes a response to its wire form.
func EncodeResponse(r *Response) []byte {
	return encode(r.Headers, r.Body, "HTTP/1.0 ", status(r.Status), "\r\n")
}

// encode sizes a message, then writes it into one exact-capacity slice:
// the start line (the concatenation of start), the headers in name order,
// content-length (whatever hs holds under that name), a blank line and the
// body.
func encode(hs map[string]string, body []byte, start ...string) []byte {
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k := range hs {
		if strings.ToLower(k) != "content-length" {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var num [20]byte
	clen := strconv.AppendInt(num[:0], int64(len(body)), 10)

	n := len("content-length: ") + len(clen) + len("\r\n\r\n") + len(body)
	for _, s := range start {
		n += len(s)
	}
	for _, k := range keys {
		n += len(k) + len(": ") + len(hs[k]) + len("\r\n")
	}
	b := make([]byte, 0, n)
	for _, s := range start {
		b = append(b, s...)
	}
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, hs[k]...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "content-length: "...)
	b = append(b, clen...)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// ParseRequest parses a complete request from its wire form.
func ParseRequest(wire []byte) (*Request, error) {
	var out *Request
	var perr error
	p := &parser{
		onRequest: func(r *Request) { out = r },
		onError:   func(err error) { perr = err },
	}
	p.feed(wire)
	if perr != nil {
		return nil, perr
	}
	if out == nil {
		return nil, ErrMalformed
	}
	return out, nil
}

// ParseResponse parses a complete response from its wire form.
func ParseResponse(wire []byte) (*Response, error) {
	var out *Response
	var perr error
	p := &parser{
		onResponse: func(r *Response) { out = r },
		onError:    func(err error) { perr = err },
	}
	p.feed(wire)
	if perr != nil {
		return nil, perr
	}
	if out == nil {
		return nil, ErrMalformed
	}
	return out, nil
}

// maxPrealloc caps the body buffer a parser allocates up front from a
// Content-Length, so a hostile length cannot force a huge allocation. A
// longer body grows by append as its bytes arrive.
const maxPrealloc = 1 << 20

var headEnd = []byte("\r\n\r\n")

// parser accumulates bytes and yields complete messages. It parses both
// requests and responses depending on which callback is installed.
//
// Its work is linear in the bytes it receives. The search for the blank
// line that ends a head resumes where the previous search stopped, the
// head is parsed once when that line arrives, and body bytes are appended
// straight into the message's own buffer, which goes to the callback and
// is then forgotten, so later messages cannot overwrite it.
type parser struct {
	buf     []byte // bytes of the next head, and any after it
	scanned int    // length of the buf prefix searched for headEnd

	// The message whose body is arriving; hdrs is nil until its head has.
	start string
	hdrs  map[string]string
	clen  int
	body  []byte

	onRequest  func(*Request)
	onResponse func(*Response)
	onError    func(error)
}

func (p *parser) feed(b []byte) {
	if p.hdrs != nil {
		n := min(p.clen-len(p.body), len(b))
		p.body = append(p.body, b[:n]...)
		b = b[n:]
	}
	p.buf = append(p.buf, b...)
	for p.next() {
	}
}

// next delivers the next complete message and reports whether it did.
func (p *parser) next() bool {
	if p.hdrs == nil {
		from := max(p.scanned-(len(headEnd)-1), 0)
		i := bytes.Index(p.buf[from:], headEnd)
		if i < 0 {
			p.scanned = len(p.buf)
			return false
		}
		head := from + i
		if !p.parseHead(p.buf[:head]) {
			p.fail()
			return false
		}
		rest := p.buf[head+len(headEnd):]
		n := min(p.clen, len(rest))
		if p.clen > 0 {
			p.body = append(make([]byte, 0, min(p.clen, maxPrealloc)), rest[:n]...)
		}
		p.buf = append(p.buf[:0], rest[n:]...)
		p.scanned = 0
	}
	if len(p.body) < p.clen {
		return false
	}
	start, hdrs, body := p.start, p.hdrs, p.body
	p.start, p.hdrs, p.clen, p.body = "", nil, 0, nil
	return p.deliver(start, hdrs, body)
}

// parseHead parses a head (the bytes before its blank line) into the
// parser's start line, headers and content length. A header line without
// a colon makes the head malformed, and so does a Content-Length that is
// not a decimal count (RFC 9112 §6.3) or names a message too long to
// index.
func (p *parser) parseHead(head []byte) bool {
	start, rest, more := strings.Cut(string(head), "\r\n")
	hdrs := make(map[string]string)
	for more {
		var line string
		line, rest, more = strings.Cut(rest, "\r\n")
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return false
		}
		hdrs[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	clen := 0
	if v, ok := hdrs["content-length"]; ok {
		if clen, ok = contentLength(v, math.MaxInt-len(head)-len(headEnd)); !ok {
			return false
		}
	}
	p.start, p.hdrs, p.clen = start, hdrs, clen
	return true
}

// contentLength parses a Content-Length value: one or more decimal digits
// naming at most limit bytes.
func contentLength(v string, limit int) (int, bool) {
	if v == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < '0' || c > '9' || n > (limit-int(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// deliver checks a complete message's start line and hands the message to
// its callback.
func (p *parser) deliver(start string, hdrs map[string]string, body []byte) bool {
	if strings.HasPrefix(start, "HTTP/") {
		// Response: HTTP/1.0 200 OK
		parts := strings.SplitN(start, " ", 3)
		if len(parts) < 2 {
			p.fail()
			return false
		}
		status, err := strconv.Atoi(parts[1])
		if err != nil {
			p.fail()
			return false
		}
		if p.onResponse != nil {
			p.onResponse(&Response{Status: status, Headers: hdrs, Body: body})
		}
		return true
	}
	// Request: GET /path?q=1 HTTP/1.0
	parts := strings.Split(start, " ")
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		p.fail()
		return false
	}
	method := strings.ToUpper(parts[0])
	if strings.HasPrefix(method, "HTTP/") {
		// An "http/..." method would re-encode as a status line.
		p.fail()
		return false
	}
	path, query := splitQuery(parts[1])
	if p.onRequest != nil {
		p.onRequest(&Request{
			Method:  method,
			Path:    path,
			Query:   query,
			Headers: hdrs,
			Body:    body,
		})
	}
	return true
}

// fail drops everything buffered and reports ErrMalformed.
func (p *parser) fail() {
	*p = parser{onRequest: p.onRequest, onResponse: p.onResponse, onError: p.onError}
	if p.onError != nil {
		p.onError(ErrMalformed)
	}
}

func splitQuery(target string) (string, map[string]string) {
	i := strings.IndexByte(target, '?')
	if i < 0 {
		return target, nil
	}
	path := target[:i]
	q := make(map[string]string)
	for _, kv := range strings.Split(target[i+1:], "&") {
		if kv == "" {
			continue
		}
		j := strings.IndexByte(kv, '=')
		if j < 0 {
			q[unescapeQuery(kv)] = ""
			continue
		}
		q[unescapeQuery(kv[:j])] = unescapeQuery(kv[j+1:])
	}
	return path, q
}

func escapeQuery(s string) string {
	const hex = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			b.WriteByte('+')
		case c == '&' || c == '=' || c == '%' || c == '+' || c == '?' || c == '#' || c < 0x20 || c > 0x7e:
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
func unescapeQuery(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			hi, e1 := hexVal(s[i+1])
			lo, e2 := hexVal(s[i+2])
			if e1 && e2 {
				b.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}
