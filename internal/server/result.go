package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ftpm"
)

// resultDoc is a done job's result document in the only form the server
// retains it: the compact encoding json.Marshal writes, which is also the
// form a persistence record embeds (appendJobRecord copies it in). It is
// built once, when the job completes or its record is replayed
// (storedJob), and its bytes are never mutated, so jobs, result-cache
// entries and persistence records share one pointer. Responses stream
// from these bytes through a pooled chunk (indenter) — indented for
// /result and JSON pages, as they are for NDJSON pages — so no request
// re-encodes the document or allocates its body, and their
// Content-Lengths come from the lengths memoized below. The compact bytes
// are kept rather than the indented body because they are smaller than
// the decoded document, while the indented body is half again larger.
type resultDoc struct {
	body []byte
	// nullPatterns records a nil Patterns slice, which encodes as null
	// where an empty one encodes as []; pages repeat the distinction.
	nullPatterns bool
	// length is the length of the /result body, counted by the first
	// request for it.
	sized  sync.Once
	length int
	// spans holds the byte range of every patterns element in body, and
	// before[i] the indented length, at page depth, of elements [0, i).
	// Most documents are only ever fetched whole, so both are built by
	// the first page request rather than with the encoding.
	index  sync.Once
	spans  []span
	before []int
}

// span is the half-open byte range of one patterns element in body.
type span struct{ start, end int }

// patternsKey opens the patterns array of an encoded ftpm.ResultJSON:
// frequent_events, which is never omitted, precedes it, and no nested
// object has a patterns key. A quote inside a string is escaped, so the
// sequence cannot occur within a value either.
const patternsKey = `,"patterns":[`

// A page lays its elements out at depth 2 (page object, patterns array):
// pageOpen precedes the first, the indenter separates the rest with a
// comma and the same line break, and pageClose ends the body.
var (
	pageOpen  = []byte("\n    ")
	pageClose = []byte("\n  ]\n}\n")
	lineEnd   = []byte("\n")
)

// encodeResult encodes doc once.
func encodeResult(doc *ftpm.ResultJSON) (*resultDoc, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return &resultDoc{body: body, nullPatterns: doc.Patterns == nil}, nil
}

// patterns returns the byte ranges of the patterns elements, indexing
// them and counting their indented lengths on the first call.
func (r *resultDoc) patterns() []span {
	r.index.Do(func() {
		at := bytes.Index(r.body, []byte(patternsKey))
		if at < 0 {
			return // "patterns":null
		}
		r.before = []int{0}
		// Each element ends at a comma or at the array's closing bracket.
		for at += len(patternsKey); r.body[at] == '{'; at++ {
			end := valueEnd(r.body, at)
			r.spans = append(r.spans, span{at, end})
			r.before = append(r.before, r.before[len(r.spans)-1]+indentedLen(r.body[at:end], 2))
			at = end
		}
	})
	return r.spans
}

// resultLen returns the length of the /result body, counting it on the
// first call.
func (r *resultDoc) resultLen() int {
	r.sized.Do(func() { r.length = indentedLen(r.body, 0) + len(lineEnd) })
	return r.length
}

// size is the byte footprint the result cache accounts for the document.
func (r *resultDoc) size() int64 { return int64(len(r.body)) }

// writeResult writes the whole document as writeJSON would encode it.
func (r *resultDoc) writeResult(w http.ResponseWriter) {
	in := startBody(w, "application/json", r.resultLen())
	in.indent(r.body, 0)
	in.put(lineEnd)
	in.close()
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
		in := startBody(w, "application/json", len(head)+len(lineEnd))
		in.put(head)
		in.put(lineEnd)
		in.close()
		return
	}
	head = bytes.TrimSuffix(head, []byte("]\n}"))
	spans := r.patterns()
	separators := (end - page.Offset - 1) * (1 + len(pageOpen))
	size := len(head) + len(pageOpen) + r.before[end] - r.before[page.Offset] + separators + len(pageClose)
	in := startBody(w, "application/json", size)
	in.put(head)
	in.put(pageOpen)
	in.indent(r.body[spans[page.Offset].start:spans[end-1].end], 2)
	in.put(pageClose)
	in.close()
}

// writeNDJSON writes elements [offset, end) one compact document per
// line — what json.Encoder.Encode writes for each pattern.
func (r *resultDoc) writeNDJSON(w http.ResponseWriter, offset, end int) {
	spans := r.patterns()[offset:end]
	size := 0
	if len(spans) > 0 {
		// The elements are separated by one comma each in body.
		size = spans[len(spans)-1].end - spans[0].start + len(lineEnd)
	}
	in := startBody(w, "application/x-ndjson", size)
	for _, s := range spans {
		in.put(r.body[s.start:s.end])
		in.put(lineEnd)
	}
	in.close()
}

// startBody writes the header of a 200 response whose body is size bytes
// and returns the indenter to write the body through.
func startBody(w http.ResponseWriter, contentType string, size int) indenter {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	return newIndenter(w)
}

// chunkSize is the size of the chunk a response body is assembled in; it
// goes to the client each time it fills, so serving a document allocates
// nothing in proportion to it. Tests lower it to make small documents
// cross chunk boundaries.
var chunkSize = 64 << 10

// slack is the most one token adds to a chunk: a comma or a bracket, a
// line break and the indentation of eight levels. A chunk holds chunkSize
// bytes plus slack, so a token that starts below chunkSize always fits,
// and so do the fixed-width stores of the indenter (at most 17 bytes).
const slack = 1 + len(blanks)

// chunks pools the chunks of finished responses.
var chunks sync.Pool // of *[]byte

// indenter writes to w through a pooled chunk.
type indenter struct {
	w     io.Writer
	chunk *[]byte
	buf   []byte
	n     int // bytes pending in buf
	limit int // the chunk is written out once n reaches it
	err   error
}

// newIndenter returns an indenter over a chunk from the pool; close
// returns the chunk.
func newIndenter(w io.Writer) indenter {
	chunk, _ := chunks.Get().(*[]byte)
	if chunk == nil || cap(*chunk) < chunkSize+slack {
		buf := make([]byte, chunkSize+slack)
		chunk = &buf
	}
	return indenter{w: w, chunk: chunk, buf: (*chunk)[:chunkSize+slack], limit: chunkSize}
}

// flush writes the pending bytes to w. It reports false once a write has
// failed — the client went away — after which nothing more is written.
func (in *indenter) flush() bool {
	if in.n > 0 && in.err == nil {
		_, in.err = in.w.Write(in.buf[:in.n])
	}
	in.n = 0
	return in.err == nil
}

// close flushes the pending bytes and returns the chunk to the pool.
func (in *indenter) close() {
	in.flush()
	chunks.Put(in.chunk)
	in.chunk, in.buf = nil, nil
}

// put writes p as it is.
func (in *indenter) put(p []byte) {
	for len(p) > 0 {
		if in.n >= in.limit && !in.flush() {
			return
		}
		c := copy(in.buf[in.n:in.limit], p)
		in.n += c
		p = p[c:]
	}
}

// indent writes src — compact JSON as json.Marshal writes it — indented
// the way json.Indent with an empty prefix and a two-space indent would,
// with src starting at nesting depth depth. At depth > 0, src may be
// several comma-separated values, such as a run of array elements; they
// are laid out as elements at that depth.
func (in *indenter) indent(src []byte, depth int) {
	buf, n, limit := in.buf, in.n, in.limit
	for i := 0; i < len(src); i++ {
		if n >= limit {
			if in.n = n; !in.flush() {
				return
			}
			n = 0
		}
		switch c := src[i]; c {
		case '"':
			end := quoteEnd(src, i)
			if end-i <= 16 && i+16 <= len(src) {
				// Most strings are keys and event names: one
				// 16-byte store, of which end-i bytes are kept.
				*(*[16]byte)(buf[n:]) = *(*[16]byte)(src[i:])
				n += end - i
			} else {
				in.n = n
				in.put(src[i:end])
				n = in.n
			}
			i = end - 1
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				buf[n], buf[n+1] = c, next // empty: stays on one line
				n += 2
				i++
				continue
			}
			depth++
			buf[n] = c
			*(*[len(blanks)]byte)(buf[n+1:]) = blankLine
			n += 2 + 2*depth
		case '}', ']':
			depth--
			*(*[len(blanks)]byte)(buf[n:]) = blankLine
			n += 1 + 2*depth
			buf[n] = c
			n++
		case ',':
			buf[n] = c
			*(*[len(blanks)]byte)(buf[n+1:]) = blankLine
			n += 2 + 2*depth
		case ':':
			buf[n], buf[n+1] = ':', ' '
			n += 2
		default:
			buf[n] = c
			n++
		}
	}
	in.n = n
}

// blanks is a newline and the indentation of eight levels. Result
// documents nest five deep (document, patterns, pattern, sample,
// interval).
const blanks = "\n                "

// blankLine is blanks as an array: the indenter stores all of it, which
// compiles to a few wide moves, and keeps as much as the depth needs.
var blankLine = [len(blanks)]byte([]byte(blanks))

// indentedLen returns the length of src indented at depth: what indent
// writes, counted token by token without storing it.
func indentedLen(src []byte, depth int) int {
	n := len(src)
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

// valueEnd returns the index just past the object or array that opens at
// src[i].
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
		}
	}
}
