package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"ftpm"
)

// resultDoc is a done job's result document in the only form the server
// retains it: the compact encoding json.Marshal writes, which is also the
// form a persistence record embeds (appendJobRecord copies it in). It is built once, when the job
// completes or its record is replayed (storedJob), and its bytes are never
// mutated, so jobs, result-cache entries and persistence records share one
// pointer. Requests are served from these bytes without re-encoding:
// /result and JSON pages indent them, NDJSON pages write the patterns
// elements as they are. The compact bytes are kept rather than the
// indented response body because they are smaller than the decoded
// document, while the indented body is half again larger.
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

// patternsKey opens the patterns array of an encoded ftpm.ResultJSON:
// frequent_events, which is never omitted, precedes it, and no nested
// object has a patterns key. A quote inside a string is escaped, so the
// sequence cannot occur within a value either.
const patternsKey = `,"patterns":[`

// encodeResult encodes doc once.
func encodeResult(doc *ftpm.ResultJSON) (*resultDoc, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return &resultDoc{body: body, nullPatterns: doc.Patterns == nil}, nil
}

// patterns returns the byte ranges of the patterns elements, indexing
// them on the first call.
func (r *resultDoc) patterns() []span {
	r.index.Do(func() {
		at := bytes.Index(r.body, []byte(patternsKey))
		if at < 0 {
			return // "patterns":null
		}
		// Each element ends at a comma or at the array's closing bracket.
		for at += len(patternsKey); r.body[at] == '{'; at++ {
			end := valueEnd(r.body, at)
			r.spans = append(r.spans, span{at, end})
			at = end
		}
	})
	return r.spans
}

// size is the byte footprint the result cache accounts for the document.
func (r *resultDoc) size() int64 { return int64(len(r.body)) }

// Indentation roughly doubles a result document; output buffers are
// sized for that up front.
const indentGrowth = 2

// writeResult writes the whole document as writeJSON would encode it.
func (r *resultDoc) writeResult(w http.ResponseWriter) {
	out := appendIndented(make([]byte, 0, indentGrowth*len(r.body)), r.body, 0)
	writeBody(w, "application/json", append(out, '\n'))
}

// writePage writes page with elements [page.Offset, end): the page
// header, encoded with an empty patterns array that is then opened up,
// followed by the elements indented at the depth they have in a page.
func (r *resultDoc) writePage(w http.ResponseWriter, page patternsPage, end int) {
	if !(r.nullPatterns && page.Offset == end) {
		page.Patterns = []ftpm.PatternJSON{}
	}
	head, _ := json.MarshalIndent(page, "", "  ") // strings and ints: cannot fail
	if page.Offset == end {
		writeBody(w, "application/json", append(head, '\n'))
		return
	}
	spans := r.patterns()
	elems := r.body[spans[page.Offset].start:spans[end-1].end]
	out := make([]byte, 0, len(head)+indentGrowth*len(elems)+16)
	out = append(out, bytes.TrimSuffix(head, []byte("]\n}"))...)
	out = appendIndented(append(out, "\n    "...), elems, 2)
	writeBody(w, "application/json", append(out, "\n  ]\n}\n"...))
}

// writeNDJSON writes elements [offset, end) one compact document per
// line — what json.Encoder.Encode writes for each pattern.
func (r *resultDoc) writeNDJSON(w http.ResponseWriter, offset, end int) {
	spans := r.patterns()[offset:end]
	var out []byte
	if len(spans) > 0 {
		out = make([]byte, 0, spans[len(spans)-1].end-spans[0].start+1)
	}
	for _, s := range spans {
		out = append(append(out, r.body[s.start:s.end]...), '\n')
	}
	writeBody(w, "application/x-ndjson", out)
}

// writeBody writes body as a 200 response with a Content-Length.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client went away
}

// appendIndented appends src — compact JSON as json.Marshal writes it —
// indented the way json.Indent with an empty prefix and a two-space
// indent would, with src starting at nesting depth depth. At depth > 0, src
// may be several comma-separated values, such as a run of array elements;
// they are laid out as elements at that depth.
func appendIndented(dst, src []byte, depth int) []byte {
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end+1]...)
			i = end
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				dst = append(dst, c, next) // empty: stays on one line
				i++
				continue
			}
			depth++
			dst = newline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(newline(dst, depth), c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// blanks is a newline and the indentation of eight levels. Result
// documents nest five deep (document, patterns, pattern, sample,
// interval).
const blanks = "\n                "

// newline appends a line break and the indentation of depth.
func newline(dst []byte, depth int) []byte {
	return append(dst, blanks[:1+2*depth]...)
}

// stringEnd returns the index of the quote closing the string that opens
// at src[i]: the first quote preceded by an even number of backslashes.
func stringEnd(src []byte, i int) int {
	for {
		i += 1 + bytes.IndexByte(src[i+1:], '"')
		esc := i
		for src[esc-1] == '\\' {
			esc--
		}
		if (i-esc)%2 == 0 {
			return i
		}
	}
}

// valueEnd returns the index just past the object or array that opens at
// src[i].
func valueEnd(src []byte, i int) int {
	depth := 0
	for ; ; i++ {
		switch src[i] {
		case '"':
			i = stringEnd(src, i)
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
}
