package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"ftpm"
)

// resultDoc is a done job's result document in the only form the server
// retains it: the /result body, the document indented the way
// json.Encoder with a two-space indent writes it, trailing newline
// included. It is built once, when the job completes or its record is
// replayed (storedJob), and its bytes are never mutated, so the job, the
// jobs that reuse its result and its persistence records share one
// pointer. /result is one write of the body, and a JSON page writes a
// slice of it: a page lays its elements out at the depth they have in
// /result. NDJSON pages and persistence records, which want compact
// JSON, drop the whitespace from the bytes they need (appendCompact). The
// served form is about 1.7 times the compact encoding; in exchange, no
// fetch indents the document again.
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

// encodeResult encodes doc once, into its served form.
func encodeResult(doc *ftpm.ResultJSON) (*resultDoc, error) {
	compact, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return indentResult(compact, doc.Patterns == nil), nil
}

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
// encoding.
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
