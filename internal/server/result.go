package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"ftpm"
)

// resultDoc is a done job's result document in the only form the server
// retains it: the /result body, the document indented the way
// json.Encoder with a two-space indent writes it, trailing newline
// included. It is built once, when the job completes (encodeResult, one
// pass from the document's fields) or its record is replayed
// (decodeResult, which indents the logged bytes), and its bytes are never
// mutated, so the job, the jobs that reuse its result and its persistence
// records share one pointer. /result is one write of the body, and a JSON
// page writes a slice of it: a page lays its elements out at the depth
// they have in /result. NDJSON pages and persistence records, which want
// compact JSON, drop the whitespace from the bytes they need
// (appendCompact). The served form is about 1.7 times the compact
// encoding; in exchange, no fetch indents the document again.
type resultDoc struct {
	body []byte
	// nullPatterns records a nil Patterns slice, which encodes as null
	// where an empty one encodes as []; pages repeat the distinction.
	nullPatterns bool
	// spans holds the byte range of every patterns element in body. Most
	// documents are only ever fetched whole, so it is built by the first
	// page request rather than with the encoding.
	index sync.Once
	spans []span
}

// span is the half-open byte range of one patterns element in body.
type span struct{ start, end int }

// patternsKey opens the patterns array of an indented ftpm.ResultJSON. A
// line break occurs in the body only as indentation, and the two blanks
// after it put the key at the top level: no nested object has a patterns
// key.
const patternsKey = "\n  \"patterns\": ["

// A page lays its elements out at depth 2 (page object, patterns array),
// as /result does (document object, patterns array): pageOpen precedes
// each element, the elements after the first with a comma before it, and
// pageClose ends the body.
var (
	pageOpen  = []byte("\n    ")
	pageClose = []byte("\n  ]\n}\n")
	lineEnd   = []byte("\n")
)

// encodeResult encodes doc once, into its served form. The body is
// written straight from the document's fields into a pooled scratch
// buffer (appendResult) and copied out at its exact size, so a retained
// document holds no slack.
func encodeResult(doc *ftpm.ResultJSON) (*resultDoc, error) {
	scratch := resultScratch.Get().(*[]byte)
	defer resultScratch.Put(scratch)
	b, err := appendResult((*scratch)[:0], doc)
	*scratch = b
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	body := make([]byte, len(b))
	copy(body, b)
	return &resultDoc{body: body, nullPatterns: doc.Patterns == nil}, nil
}

// resultScratch holds the buffers encodeResult writes bodies into before
// copying them out. A buffer keeps the capacity of the largest body it
// took until two collections clear the pool; a sizing pass that needs no
// buffer made the encoding twice as slow.
var resultScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendResult appends doc's served form to b: what json.Encoder with
// escaped HTML and a two-space indent writes for it, member for member,
// with no reflection and no compact encoding in between. A nil slice
// writes null and an empty one [], and mu and sample are left out when
// empty, as their omitempty tags say. A NaN or infinite float is an
// error, as json.Marshal reports it.
func appendResult(b []byte, doc *ftpm.ResultJSON) ([]byte, error) {
	w := resultWriter{b: b}
	w.raw("{\n  \"sequences\": ")
	w.int(int64(doc.Sequences))
	w.raw(",\n  \"absolute_support\": ")
	w.int(int64(doc.AbsoluteSupport))
	if doc.Mu != 0 {
		w.raw(",\n  \"mu\": ")
		w.float(doc.Mu)
	}
	w.raw(",\n  \"frequent_events\": ")
	if w.open(len(doc.Singles), doc.Singles == nil) {
		for i := range doc.Singles {
			s := &doc.Singles[i]
			w.elem(i, "\n    {\n      \"event\": ")
			w.str(s.Event)
			w.raw(",\n      \"support\": ")
			w.int(int64(s.Support))
			w.raw(",\n      \"rel_support\": ")
			w.float(s.RelSupport)
			w.raw("\n    }")
		}
		w.raw("\n  ]")
	}
	w.raw(",\n  \"patterns\": ")
	if w.open(len(doc.Patterns), doc.Patterns == nil) {
		for i := range doc.Patterns {
			w.pattern(i, &doc.Patterns[i])
		}
		w.raw("\n  ]")
	}
	w.raw("\n}\n")
	return w.b, w.err
}

// resultWriter appends a result document's served form. Its members are
// written with their line breaks and indentation spelled out: depth 1
// holds the document's members, 2 the elements of its arrays, 3 a
// pattern's members, 4 the elements of a pattern's arrays and 5 their
// members.
type resultWriter struct {
	b   []byte
	err error // the first unsupported value
}

// pattern writes element i of the patterns array.
func (w *resultWriter) pattern(i int, p *ftpm.PatternJSON) {
	w.elem(i, "\n    {\n      \"k\": ")
	w.int(int64(p.K))
	w.raw(",\n      \"events\": ")
	if w.open(len(p.Events), p.Events == nil) {
		for j, e := range p.Events {
			w.elem(j, "\n        ")
			w.str(e)
		}
		w.raw("\n      ]")
	}
	w.raw(",\n      \"triples\": ")
	if w.open(len(p.Triples), p.Triples == nil) {
		for j := range p.Triples {
			t := &p.Triples[j]
			w.elem(j, "\n        {\n          \"a\": ")
			w.str(t.A)
			w.raw(",\n          \"relation\": ")
			w.str(t.Relation)
			w.raw(",\n          \"b\": ")
			w.str(t.B)
			w.raw("\n        }")
		}
		w.raw("\n      ]")
	}
	w.raw(",\n      \"support\": ")
	w.int(int64(p.Support))
	w.raw(",\n      \"rel_support\": ")
	w.float(p.RelSupport)
	w.raw(",\n      \"confidence\": ")
	w.float(p.Confidence)
	if len(p.Sample) > 0 {
		w.raw(",\n      \"sample\": [")
		for j := range p.Sample {
			s := &p.Sample[j]
			w.elem(j, "\n        {\n          \"event\": ")
			w.str(s.Event)
			w.raw(",\n          \"start\": ")
			w.int(s.Start)
			w.raw(",\n          \"end\": ")
			w.int(s.End)
			w.raw("\n        }")
		}
		w.raw("\n      ]")
	}
	w.raw("\n    }")
}

// open writes the opening of an array of n elements, null when the slice
// is nil and [] when it is empty, and reports whether elements follow.
func (w *resultWriter) open(n int, null bool) bool {
	switch {
	case null:
		w.raw("null")
	case n == 0:
		w.raw("[]")
	default:
		w.b = append(w.b, '[')
		return true
	}
	return false
}

// elem starts element i of an array: a comma after the first element,
// then head, the element's line break, indentation and opening.
func (w *resultWriter) elem(i int, head string) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.raw(head)
}

func (w *resultWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *resultWriter) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

// float writes f as encoding/json's float encoder does: by the ES6
// number-to-string rules, shortest round-trip digits, with an exponent
// below 1e-6 and from 1e21 up, written without a leading zero.
func (w *resultWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1] // e-07 becomes e-7
		w.b = w.b[:n-1]
	}
}

// str writes s as a JSON string, as encoding/json does with HTML
// escaping: quotes, backslashes and control characters escaped, <, > and
// & as \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func (w *resultWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// The other control characters, and <, > and &.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	w.b = append(append(b, s[start:]...), '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe reports the ASCII bytes a JSON string holds as they are: all
// but the control characters, the quote, the backslash and HTML's <, >
// and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// decodeResult builds the served form of a document from its compact
// encoding in a log record. The decode into ftpm.ResultJSON validates
// data; the body is then indented from data itself, not from an encoding
// of the decoded document, which can differ from the first encoding: an
// invalid UTF-8 byte in a name encodes as the escape \ufffd, which decodes
// to U+FFFD and encodes again as its UTF-8 bytes. So a replayed document
// serves the bytes it served before the restart.
func decodeResult(data []byte) (*resultDoc, error) {
	var doc ftpm.ResultJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	// A record the server wrote is compact; a record from elsewhere may
	// hold whitespace, which indent expects none of.
	if bytes.ContainsAny(data, " \t\r\n") {
		compact := bytes.NewBuffer(make([]byte, 0, len(data)))
		if err := json.Compact(compact, data); err != nil {
			return nil, err
		}
		data = compact.Bytes()
	}
	return indentResult(data, doc.Patterns == nil), nil
}

// indentResult builds the served form of a document from its compact
// encoding. Only replay needs it: a replayed document serves the bytes
// its record holds, which a new encoding of the decoded document need
// not reproduce.
func indentResult(compact []byte, nullPatterns bool) *resultDoc {
	body := make([]byte, indentedLen(compact)+len(lineEnd))
	body[indent(body, compact)] = '\n'
	return &resultDoc{body: body, nullPatterns: nullPatterns}
}

// patterns returns the byte ranges of the patterns elements, indexing
// them on the first call.
func (r *resultDoc) patterns() []span {
	r.index.Do(func() {
		at := bytes.Index(r.body, []byte(patternsKey))
		if at < 0 {
			return // "patterns": null
		}
		// pageOpen precedes every element; after the last one comes the
		// array's closing line.
		for at += len(patternsKey); bytes.HasPrefix(r.body[at:], pageOpen); {
			start := at + len(pageOpen)
			end := valueEnd(r.body, start)
			r.spans = append(r.spans, span{start, end})
			at = end + 1 // past the comma
		}
	})
	return r.spans
}

// size is the byte footprint of the document, which result_cache_bytes
// sums over the documents a repeat job can reuse.
func (r *resultDoc) size() int64 { return int64(len(r.body)) }

// writeResult writes the whole document as writeJSON would encode it.
func (r *resultDoc) writeResult(w http.ResponseWriter) {
	writeBody(w, "application/json", r.body)
}

// writePage writes page with elements [page.Offset, end): the page
// header, encoded with an empty patterns array that is then opened up,
// followed by the elements as they stand in body.
func (r *resultDoc) writePage(w http.ResponseWriter, page patternsPage, end int) {
	if !(r.nullPatterns && page.Offset == end) {
		page.Patterns = []ftpm.PatternJSON{}
	}
	head, _ := json.MarshalIndent(page, "", "  ") // strings and ints: cannot fail
	if page.Offset == end {
		writeBody(w, "application/json", append(head, lineEnd...))
		return
	}
	head = append(bytes.TrimSuffix(head, []byte("]\n}")), pageOpen...)
	spans := r.patterns()
	writeBody(w, "application/json", head, r.body[spans[page.Offset].start:spans[end-1].end], pageClose)
}

// writeNDJSON writes elements [offset, end) one compact document per
// line — what json.Encoder.Encode writes for each pattern. The page is
// compacted into one buffer the size of its indented elements.
func (r *resultDoc) writeNDJSON(w http.ResponseWriter, offset, end int) {
	var page []byte
	if spans := r.patterns()[offset:end]; len(spans) > 0 {
		// Compacted, an element and its line end take no more room than
		// the element and the separator after it in body.
		page = make([]byte, 0, spans[len(spans)-1].end-spans[0].start+len(lineEnd))
		for _, s := range spans {
			page = append(appendCompact(page, r.body[s.start:s.end]), lineEnd...)
		}
	}
	writeBody(w, "application/x-ndjson", page)
}

// writeBody writes a 200 response whose body is parts, in order. A
// failed write means the client went away, and the parts after it are
// dropped.
func writeBody(w http.ResponseWriter, contentType string, parts ...[]byte) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}

// indent writes src — compact JSON as json.Marshal writes it — into dst
// indented the way json.Indent with an empty prefix and a two-space
// indent would, and returns the length written. dst must hold at least
// indentedLen(src) bytes.
func indent(dst, src []byte) int {
	n, depth := 0, 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := quoteEnd(src, i)
			if end-i <= 16 && i+16 <= len(src) {
				// Most strings are keys and event names: one 16-byte
				// store, of which end-i bytes are kept. dst has as many
				// bytes left as src, or more.
				*(*[16]byte)(dst[n:]) = *(*[16]byte)(src[i:])
				n += end - i
			} else {
				n += copy(dst[n:], src[i:end])
			}
			i = end - 1
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				dst[n], dst[n+1] = c, next // empty: stays on one line
				n += 2
				i++
				continue
			}
			depth++
			dst[n] = c
			n = blank(dst, n+1, depth)
		case '}', ']':
			depth--
			n = blank(dst, n, depth)
			dst[n] = c
			n++
		case ',':
			dst[n] = c
			n = blank(dst, n+1, depth)
		case ':':
			dst[n], dst[n+1] = ':', ' '
			n += 2
		default:
			dst[n] = c
			n++
		}
	}
	return n
}

// blank stores a line break and the indentation of depth at dst[at] and
// returns the index past them. It stores all of blankLine, which compiles
// to a few wide moves, unless that would run past the end of dst or the
// indentation is deeper than blankLine's.
func blank(dst []byte, at, depth int) int {
	end := at + 1 + 2*depth
	if end-at <= len(blanks) && len(dst)-at >= len(blanks) {
		*(*[len(blanks)]byte)(dst[at:]) = blankLine
		return end
	}
	dst[at] = '\n'
	for i := at + 1; i < end; i++ {
		dst[i] = ' '
	}
	return end
}

// blanks is a newline and the indentation of eight levels. Result
// documents nest five deep (document, patterns, pattern, sample,
// interval); only a document read back from a log record may nest deeper.
const blanks = "\n                "

// blankLine is blanks as an array, for indent's wide stores.
var blankLine = [len(blanks)]byte([]byte(blanks))

// indentedLen returns the length of src indented: what indent writes,
// counted token by token without storing it.
func indentedLen(src []byte) int {
	n, depth := len(src), 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			i = quoteEnd(src, i) - 1
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				i++ // empty: stays on one line
				continue
			}
			depth++
			n += 1 + 2*depth
		case '}', ']':
			depth--
			n += 1 + 2*depth
		case ',':
			n += 1 + 2*depth
		case ':':
			n++
		}
	}
	return n
}

// appendCompact appends src, JSON as indent writes it, to dst without
// the whitespace outside its strings: json.Marshal's encoding of the same
// value.
func appendCompact(dst, src []byte) []byte {
	dst = slices.Grow(dst, len(src))
	kept := 0 // start of the run of src not yet appended
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			i = quoteEnd(src, i) - 1
		case ' ', '\n':
			dst = append(dst, src[kept:i]...)
			for i+1 < len(src) && src[i+1] == ' ' {
				i++
			}
			kept = i + 1
		}
	}
	return append(dst, src[kept:]...)
}

// quoteEnd returns the index just past the string that opens at src[i]:
// a forward scan that steps over each escaped byte, so only an unescaped
// quote closes it.
func quoteEnd(src []byte, i int) int {
	for i++; src[i] != '"'; i++ {
		if src[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// valueEnd returns the end of the array element that starts at src[i]:
// the index just past an object or array, or that of the comma or line
// break after any other value.
func valueEnd(src []byte, i int) int {
	depth := 0
	for ; ; i++ {
		switch src[i] {
		case '"':
			i = quoteEnd(src, i) - 1
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', '\n':
			if depth == 0 {
				return i
			}
		}
	}
}
