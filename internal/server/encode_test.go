package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ftpm"
)

// TestEncodeResultEdgeValues holds encodeResult to json.Encoder on the
// values FuzzIndentStream's generator never makes: nil against empty
// slices at every level, floats at the edges of the ES6 formatting rules
// (zero, negative zero, the smallest subnormal, the exponent cut-offs),
// negative and extreme integers, and raw bytes the string escaping must
// treat as encoding/json does. NaN and the infinities, which json.Marshal
// rejects, must be errors.
func TestEncodeResultEdgeValues(t *testing.T) {
	pattern := func() ftpm.PatternJSON {
		return ftpm.PatternJSON{
			K: 2, Events: []string{"a", "b"},
			Triples: []ftpm.TripleJSON{{A: "a", Relation: "follow", B: "b"}},
			Support: 1, RelSupport: 0.5, Confidence: 1,
			Sample: []ftpm.IntervalJSON{{Event: "a", Start: 0, End: 1}, {Event: "b", Start: 2, End: 3}},
		}
	}
	with := func(edit func(*ftpm.PatternJSON)) *ftpm.ResultJSON {
		p := pattern()
		edit(&p)
		return &ftpm.ResultJSON{Sequences: 1, Singles: []ftpm.SingleJSON{}, Patterns: []ftpm.PatternJSON{p}}
	}
	docs := map[string]*ftpm.ResultJSON{
		"zero document": {},
		"empty lists":   {Singles: []ftpm.SingleJSON{}, Patterns: []ftpm.PatternJSON{}},
		"nil events":    with(func(p *ftpm.PatternJSON) { p.Events = nil }),
		"empty events":  with(func(p *ftpm.PatternJSON) { p.Events = []string{} }),
		"nil triples":   with(func(p *ftpm.PatternJSON) { p.Triples = nil }),
		"empty triples": with(func(p *ftpm.PatternJSON) { p.Triples = []ftpm.TripleJSON{} }),
		"nil sample":    with(func(p *ftpm.PatternJSON) { p.Sample = nil }),
		"empty sample":  with(func(p *ftpm.PatternJSON) { p.Sample = []ftpm.IntervalJSON{} }),
		"zero pattern":  {Patterns: []ftpm.PatternJSON{{}}},
		"extreme integers": with(func(p *ftpm.PatternJSON) {
			p.K, p.Support, p.Sample[0].Start, p.Sample[1].End = -7, math.MaxInt, math.MinInt64, math.MaxInt64
		}),
		"negative header":             {Sequences: -1, AbsoluteSupport: math.MinInt},
		"raw bytes":                   with(func(p *ftpm.PatternJSON) { p.Events[0] = "\x00\x1f\x7f<>&\\\"\u2028\u2029\xff\xe2\x80\xc3(\U0001F642" }),
		"long escape run":             with(func(p *ftpm.PatternJSON) { p.Triples[0].Relation = strings.Repeat("<\u2028\xff", 40) }),
		"confidence subnormal":        with(func(p *ftpm.PatternJSON) { p.Confidence = 5e-324 }),
		"rel_support negative zero":   with(func(p *ftpm.PatternJSON) { p.RelSupport = math.Copysign(0, -1) }),
		"rel_support largest float64": with(func(p *ftpm.PatternJSON) { p.RelSupport = -math.MaxFloat64 }),
	}
	for _, mu := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 0.000001234, 1e20, 1e21, 123456789e13, -1e-7, -1e21, 0.1} {
		docs[fmt.Sprintf("mu %v", mu)] = &ftpm.ResultJSON{Mu: mu, Singles: []ftpm.SingleJSON{{Event: "a", RelSupport: mu}}}
	}
	// Documents filled by reflection set every field of the document
	// types, so a field the writer does not know of fails here.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		v, ok := quick.Value(reflect.TypeFor[ftpm.ResultJSON](), rng)
		if !ok {
			t.Fatal("quick.Value cannot fill a ResultJSON")
		}
		doc := v.Interface().(ftpm.ResultJSON)
		docs[fmt.Sprintf("reflection-filled %d", i)] = &doc
	}
	for what, doc := range docs {
		rd, err := encodeResult(doc)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := indented(t, doc); !bytes.Equal(rd.body, want) {
			t.Errorf("%s:\n got %q\nwant %q", what, rd.body, want)
		}
		if cap(rd.body) != len(rd.body) {
			t.Errorf("%s: body of %d bytes holds %d", what, len(rd.body), cap(rd.body))
		}
		if rd.nullPatterns != (doc.Patterns == nil) {
			t.Errorf("%s: nullPatterns %v for patterns %v", what, rd.nullPatterns, doc.Patterns)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for what, doc := range map[string]*ftpm.ResultJSON{
			"mu":                 {Mu: bad},
			"single rel_support": {Singles: []ftpm.SingleJSON{{Event: "a", RelSupport: bad}}},
			"rel_support":        with(func(p *ftpm.PatternJSON) { p.RelSupport = bad }),
			"confidence":         with(func(p *ftpm.PatternJSON) { p.Confidence = bad }),
		} {
			if rd, err := encodeResult(doc); err == nil {
				t.Errorf("%s %v: encoded %q, want an error", what, bad, rd.body)
			} else if want := fmt.Sprintf("encode result: json: unsupported value: %v", bad); err.Error() != want {
				t.Errorf("%s %v: error %q, want %q", what, bad, err, want)
			}
		}
	}
}

// TestEncodeResultConcurrent encodes documents of different sizes from
// several goroutines at once: each encoding borrows a scratch buffer from
// the shared pool, and each body must still equal its document's
// reference encoding once the buffer has gone back to the pool.
func TestEncodeResultConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var docs []*ftpm.ResultJSON
	var want [][]byte
	for _, n := range []int{0, 1, 7, 40, 200} {
		doc := randomResult(rng, n)
		docs = append(docs, doc)
		want = append(want, indented(t, doc))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var bodies [][]byte
			for i := 0; i < 25; i++ {
				rd, err := encodeResult(docs[(g+i)%len(docs)])
				if err != nil {
					t.Error(err)
					return
				}
				bodies = append(bodies, rd.body)
			}
			for i, body := range bodies {
				if k := (g + i) % len(docs); !bytes.Equal(body, want[k]) {
					t.Errorf("goroutine %d, encoding %d: body differs from the reference of document %d", g, i, k)
				}
			}
		}(g)
	}
	wg.Wait()
}
