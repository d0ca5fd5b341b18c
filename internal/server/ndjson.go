package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// parseNDJSON consumes an append body of JSON row objects, each
// {"time": <grid timestamp>, "values": {<series>: <number or symbol name>}}.
// Every row must carry the exact next grid timestamp and exactly the
// dataset's series set — mixed column arity, unknown series, duplicate or
// out-of-grid timestamps are 400s, never partial applications.
//
// The body is scanned byte by byte, series keys resolved through p.index
// and cells appended straight into p.cols. The language accepted is the
// one json.Decoder accepts decoding each row into
// struct{Time *int64; Values map[string]json.RawMessage} with unknown
// fields disallowed, exactly:
//   - rows are whitespace-separated JSON values, not lines;
//   - the keys "time" and "values" match case-insensitively, with
//     Unicode folding ("TIME", "valueſ"), and any other key is an error;
//   - the last "time" wins, and "time" takes only an integer or null;
//   - a repeated "values" object merges into the first, a duplicate series
//     key keeps its last value and counts once, and "values":null empties
//     what was collected;
//   - only the value a series ends up with must be a number or a string,
//     so a rejected cell a later duplicate key replaces is not an error.
//
// One rule is added to that language: a series key or value holding
// invalid UTF-8 is an error, where json.Decoder would read each invalid
// byte as U+FFFD and so give distinct names one spelling. Outside strings
// the grammar allows only ASCII, so the body is accepted only if it is
// valid UTF-8 throughout. A key or string containing an escape or a byte
// ≥ 0x80 is decoded by json.Unmarshal. The whole body is read before any
// row is checked, so an oversize body is always the reader's
// *http.MaxBytesError (a 413).
func (p *appendParser) parseNDJSON(body io.Reader) error {
	data, err := io.ReadAll(body)
	if err != nil {
		return fmt.Errorf("read body: %w", err) // %w: the handler matches *http.MaxBytesError
	}
	sc := rowScanner{p: p, b: data, cells: make([]cell, len(p.names))}
	for {
		sc.space()
		if sc.i == len(data) {
			return nil
		}
		if err := sc.row(); err != nil {
			return err
		}
		p.rows++
	}
}

// presize gives every column, at once and before the first row's cells,
// room for the rows data is estimated to hold: one per line, but never
// more than fit in its bytes, as a row spells out {"time":0,"values":{}}
// and a key, a colon, a value and a comma per series. The estimate only
// sizes the columns; a body holding more rows grows them.
func (p *appendParser) presize(data []byte) {
	k := len(p.names)
	rows := min(bytes.Count(data, []byte{'\n'})+1, len(data)/(21+5*k)+1)
	all := make([]int, k*rows)
	for col := range p.cols {
		p.cols[col] = all[col*rows : col*rows : (col+1)*rows]
	}
}

// maxCellDepth is how deeply a cell value may nest: encoding/json rejects
// nesting beyond 10000 levels, and a cell sits inside the row and its
// values object.
const maxCellDepth = 10000 - 2

// rowScanner scans an NDJSON append body one row at a time.
type rowScanner struct {
	p *appendParser
	b []byte
	i int // the next byte to scan

	// cells[col] is series col's value in the current row; it is set when
	// its stamp is stamp. A new row or "values":null moves stamp on,
	// unsetting every cell at once.
	cells []cell
	stamp int
	set   int // distinct series set under stamp
	// extraSet reports a key naming no series under stamp; extra is the
	// last such key.
	extraSet bool
	extra    string
}

// cell is a series value: its bytes b[lo:hi] and whether it is a plain
// string, one that needs no decoding (rowScanner.str).
type cell struct {
	stamp  int
	lo, hi int
	plain  bool
}

// errorf returns an error about the row being scanned.
func (sc *rowScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("row %d: "+format, append([]any{sc.p.rows + 1}, args...)...)
}

// syntax returns the error of a byte the JSON grammar does not allow at
// sc.i.
func (sc *rowScanner) syntax() error {
	if sc.i >= len(sc.b) {
		return sc.errorf("unexpected end of JSON input")
	}
	return sc.errorf("invalid character %q at byte %d", sc.b[sc.i], sc.i)
}

// space skips JSON whitespace.
func (sc *rowScanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// expect skips whitespace and then byte c.
func (sc *rowScanner) expect(c byte) error {
	sc.space()
	if sc.i >= len(sc.b) || sc.b[sc.i] != c {
		return sc.syntax()
	}
	sc.i++
	return nil
}

// next skips whitespace and then the ',' or close that follows a member,
// reporting whether it was the close.
func (sc *rowScanner) next(close byte) (bool, error) {
	sc.space()
	if sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ',':
			sc.i++
			return false, nil
		case close:
			sc.i++
			return true, nil
		}
	}
	return false, sc.syntax()
}

// row scans one row object and, when it is valid, appends its cells.
func (sc *rowScanner) row() error {
	if sc.b[sc.i] != '{' {
		return sc.errorf("a row must be a JSON object")
	}
	sc.i++
	sc.clear()
	var t int64
	hasTime := false
	if sc.space(); sc.i < len(sc.b) && sc.b[sc.i] == '}' {
		sc.i++
	} else {
		for done := false; !done; {
			sc.space()
			lo, hi, plain, err := sc.str()
			if err != nil {
				return err
			}
			key := sc.b[lo:hi]
			if !plain {
				key = []byte(decode(sc.b[lo-1 : hi+1]))
			}
			if err := sc.expect(':'); err != nil {
				return err
			}
			sc.space()
			switch {
			case bytes.EqualFold(key, []byte("time")):
				if hasTime, t, err = sc.time(); err != nil {
					return err
				}
			case bytes.EqualFold(key, []byte("values")):
				if err := sc.values(); err != nil {
					return err
				}
			default:
				return sc.errorf("json: unknown field %q", key)
			}
			if done, err = sc.next('}'); err != nil {
				return err
			}
		}
	}
	p := sc.p
	if !hasTime {
		return sc.errorf("missing time")
	}
	if err := p.checkTime(t); err != nil {
		return err
	}
	if sc.extraSet {
		return sc.errorf("unknown series %q", sc.extra)
	}
	if sc.set != len(p.names) {
		return sc.errorf("%d values for %d series", sc.set, len(p.names))
	}
	if p.rows == 0 {
		p.presize(sc.b)
	}
	for col, c := range sc.cells {
		id, err := sc.symbol(col, c)
		if err != nil {
			return err
		}
		p.cols[col] = append(p.cols[col], id)
	}
	return nil
}

// clear unsets every cell: a new row, or "values":null.
func (sc *rowScanner) clear() {
	sc.stamp++
	sc.set, sc.extraSet = 0, false
}

// time scans the value of a "time" key: an integer, or null for none.
func (sc *rowScanner) time() (bool, int64, error) {
	if sc.literal("null") {
		return false, 0, nil
	}
	if lo := sc.i; lo < len(sc.b) && (sc.b[lo] == '-' || '0' <= sc.b[lo] && sc.b[lo] <= '9') {
		if err := sc.number(); err != nil {
			return false, 0, err
		}
		if t, err := strconv.ParseInt(string(sc.b[lo:sc.i]), 10, 64); err == nil {
			return true, t, nil
		}
	}
	return false, 0, sc.errorf("time must be an integer")
}

// values scans the value of a "values" key: an object of series cells,
// merged into the row's, or null, which empties them.
func (sc *rowScanner) values() error {
	if sc.literal("null") {
		sc.clear()
		return nil
	}
	if sc.i >= len(sc.b) || sc.b[sc.i] != '{' {
		return sc.errorf("values must be an object")
	}
	sc.i++
	if sc.space(); sc.i < len(sc.b) && sc.b[sc.i] == '}' {
		sc.i++
		return nil
	}
	p := sc.p
	guess := 0 // rows usually list the series in the dataset's order
	for {
		sc.space()
		lo, hi, plain, err := sc.str()
		if err != nil {
			return err
		}
		key := sc.b[lo:hi]
		if !plain && !utf8.Valid(key) {
			return sc.errorf("series name %q is not valid UTF-8", key)
		}
		col, known := -1, false
		if !plain {
			name := decode(sc.b[lo-1 : hi+1])
			col, known = p.index[name]
			if !known {
				sc.extra = name
			}
		} else if guess < len(p.names) && p.names[guess] == string(key) {
			col, known = guess, true
		} else if col, known = p.index[string(key)]; !known {
			sc.extra = string(key)
		}
		if err := sc.expect(':'); err != nil {
			return err
		}
		sc.space()
		c := cell{stamp: sc.stamp, lo: sc.i}
		if c.plain, err = sc.value(); err != nil {
			return err
		}
		c.hi = sc.i
		if !c.plain && !utf8.Valid(sc.b[c.lo:c.hi]) {
			return sc.errorf("series %q: value %q is not valid UTF-8", key, sc.b[c.lo:c.hi])
		}
		if known {
			if sc.cells[col].stamp != sc.stamp {
				sc.set++
			}
			sc.cells[col] = c
			guess = col + 1
		} else {
			sc.extraSet = true
		}
		if done, err := sc.next('}'); err != nil || done {
			return err
		}
	}
}

// symbol maps the value series col ended the row with to its symbol id:
// a number through the dataset's threshold, a string by name.
func (sc *rowScanner) symbol(col int, c cell) (int, error) {
	p, raw := sc.p, sc.b[c.lo:c.hi]
	switch {
	case raw[0] == '"' && c.plain:
		name := raw[1 : len(raw)-1]
		if id, ok := p.alphaIdx[col][string(name)]; ok {
			return id, nil
		}
		return p.intern(col, string(name)), nil
	case raw[0] == '"':
		return p.intern(col, decode(raw)), nil
	case raw[0] == '-' || '0' <= raw[0] && raw[0] <= '9':
		// The scan checked the JSON number grammar, so only a value beyond
		// float64's range fails, as json.Unmarshal into a float64 would.
		if num, err := strconv.ParseFloat(string(raw), 64); err == nil {
			return p.number(col, num), nil
		}
	case string(raw) == "null":
		return 0, sc.errorf("series %q: value is null", p.names[col])
	}
	return 0, sc.errorf("series %q: value %s is neither a number nor a symbol name", p.names[col], raw)
}

// value scans any JSON value, reporting whether it is a string that
// needs no decoding.
func (sc *rowScanner) value() (plain bool, err error) {
	if sc.i >= len(sc.b) {
		return false, sc.syntax()
	}
	switch c := sc.b[sc.i]; {
	case c == '"':
		_, _, plain, err := sc.str()
		return plain, err
	case c == '-' || '0' <= c && c <= '9':
		return false, sc.number()
	case c == '{' || c == '[':
		return false, sc.nested()
	case sc.literal("true"), sc.literal("false"), sc.literal("null"):
		return false, nil
	}
	return false, sc.syntax()
}

// literal scans word if it is next.
func (sc *rowScanner) literal(word string) bool {
	if bytes.HasPrefix(sc.b[sc.i:], []byte(word)) {
		sc.i += len(word)
		return true
	}
	return false
}

// str scans the string at sc.i and returns the bytes between its quotes,
// and whether it is plain: no escape and no byte below 0x20 or from 0x80,
// so the bytes are the string. A string that is not plain is checked by
// json.Valid; its end was found by stepping over each escaped byte.
func (sc *rowScanner) str() (lo, hi int, plain bool, err error) {
	b := sc.b
	if sc.i >= len(b) || b[sc.i] != '"' {
		return 0, 0, false, sc.syntax()
	}
	plain = true
	for i := sc.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if !plain && !json.Valid(b[sc.i:i+1]) {
				return 0, 0, false, sc.errorf("malformed JSON string at byte %d", sc.i)
			}
			lo, hi, sc.i = sc.i+1, i, i+1
			return lo, hi, plain, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	sc.i = len(b)
	return 0, 0, false, sc.syntax()
}

// decode returns the string the quoted JSON string q holds, as
// json.Unmarshal decodes it; str has checked its syntax.
func decode(q []byte) string {
	var s string
	json.Unmarshal(q, &s)
	return s
}

// number scans a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is stricter than
// strconv's: it has no '+' sign, leading '.', leading zero, hex, "Inf" or
// '_' separators.
func (sc *rowScanner) number() error {
	b, i := sc.b, sc.i
	digits := func() bool {
		at := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > at
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		sc.i = i
		return sc.syntax()
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			sc.i = i
			return sc.syntax()
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			sc.i = i
			return sc.syntax()
		}
	}
	sc.i = i
	return nil
}

// nested scans an object or array cell. Its end is found by counting
// brackets outside strings; json.Valid then checks its grammar, and its
// depth is held to what encoding/json allows at a cell's place.
func (sc *rowScanner) nested() error {
	b, lo := sc.b, sc.i
	depth, deepest := 0, 0
	for i := lo; i < len(b); i++ {
		switch b[i] {
		case '"':
			sc.i = i
			if _, _, _, err := sc.str(); err != nil {
				return err
			}
			i = sc.i - 1
		case '{', '[':
			depth++
			deepest = max(deepest, depth)
		case '}', ']':
			if depth--; depth > 0 {
				continue
			}
			if deepest > maxCellDepth || !json.Valid(b[lo:i+1]) {
				sc.i = lo
				return sc.errorf("malformed JSON value at byte %d", lo)
			}
			sc.i = i + 1
			return nil
		}
	}
	sc.i = len(b)
	return sc.syntax()
}
