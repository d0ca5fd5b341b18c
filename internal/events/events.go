// Package events implements temporal events, event instances, temporal
// sequences and the temporal sequence database DSEQ (paper Defs 3.4-3.10),
// together with the overlapping splitting strategy that converts a symbolic
// database into DSEQ without losing patterns (paper §IV-B2, Fig 3).
package events

import (
	"fmt"
	"sort"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// EventID identifies a temporal event (a (series, symbol) pair such as
// "Kitchen=On") interned in a Vocab.
type EventID int32

// EventDef is the human-readable definition of an event.
type EventDef struct {
	Series string // originating time series (variable), e.g. "Kitchen"
	Symbol string // symbol of the series' alphabet, e.g. "On"
}

// Name renders the event like the paper, e.g. "Kitchen=On".
func (d EventDef) Name() string { return d.Series + "=" + d.Symbol }

// Vocab interns event definitions to dense EventIDs. IDs are assigned in
// definition order; the zero Vocab is ready to use via New.
type Vocab struct {
	defs  []EventDef
	index map[EventDef]EventID
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{index: make(map[EventDef]EventID)}
}

// Define interns (series, symbol) and returns its id. Repeated definitions
// return the existing id.
func (v *Vocab) Define(series, symbol string) EventID {
	d := EventDef{Series: series, Symbol: symbol}
	if id, ok := v.index[d]; ok {
		return id
	}
	id := EventID(len(v.defs))
	v.defs = append(v.defs, d)
	v.index[d] = id
	return id
}

// Lookup returns the id of (series, symbol) if defined.
func (v *Vocab) Lookup(series, symbol string) (EventID, bool) {
	id, ok := v.index[EventDef{Series: series, Symbol: symbol}]
	return id, ok
}

// Def returns the definition of id.
func (v *Vocab) Def(id EventID) EventDef { return v.defs[id] }

// Name returns the rendered name of id.
func (v *Vocab) Name(id EventID) string { return v.defs[id].Name() }

// Size returns the number of defined events.
func (v *Vocab) Size() int { return len(v.defs) }

// EventsOfSeries returns the ids of all events belonging to the named
// series, in id order.
func (v *Vocab) EventsOfSeries(series string) []EventID {
	var out []EventID
	for id, d := range v.defs {
		if d.Series == series {
			out = append(out, EventID(id))
		}
	}
	return out
}

// Instance is a single occurrence of a temporal event during an interval
// (Def 3.5).
type Instance struct {
	Event EventID
	temporal.Interval
}

// Before orders instances chronologically: by start time, then by
// DESCENDING end (containers before their same-start containees, see
// temporal.Interval.Before), then by event id; it is the order of a
// temporal sequence (Def 3.9).
func (in Instance) Before(o Instance) bool {
	if in.Start != o.Start {
		return in.Start < o.Start
	}
	if in.End != o.End {
		return in.End > o.End
	}
	return in.Event < o.Event
}

// Sequence is a temporal sequence: event instances in chronological order
// (Def 3.9). Window records the time span the sequence was cut from.
//
// The per-event index is a CSR (compressed sparse row) table built once
// by a counting sort over the instances' event ids: idx holds the
// instance indexes grouped by event, chronological within an event, and
// offs (length maxEvent+2) delimits each event's group, so the instances
// of e are idx[offs[e]:offs[e+1]]. It costs 4 B per event id up to the
// sequence's largest plus 4 B per instance; a sequence is immutable after
// construction, so shallow copies share the table.
type Sequence struct {
	ID        int
	Window    temporal.Interval
	Instances []Instance

	idx  []int32 // instance indexes grouped by event
	offs []int32 // event e's group is idx[offs[e]:offs[e+1]]
}

// sortAndIndex normalizes the instance order and (re)builds the per-event
// index. It must be called after constructing or mutating Instances.
func (s *Sequence) sortAndIndex() {
	sort.Slice(s.Instances, func(i, j int) bool { return s.Instances[i].Before(s.Instances[j]) })
	var maxEvent EventID
	for _, in := range s.Instances {
		if in.Event > maxEvent {
			maxEvent = in.Event
		}
	}
	// Count into offs[e+1], prefix-sum into group starts, then place each
	// instance at its group's cursor offs[e]. Placing advances offs[e] to
	// the group's end (the next group's start), so shifting the table one
	// slot right restores the starts.
	offs := make([]int32, int(maxEvent)+2)
	for _, in := range s.Instances {
		offs[in.Event+1]++
	}
	for e := 1; e < len(offs); e++ {
		offs[e] += offs[e-1]
	}
	idx := make([]int32, len(s.Instances))
	for i, in := range s.Instances {
		idx[offs[in.Event]] = int32(i)
		offs[in.Event]++
	}
	copy(offs[1:], offs[:len(offs)-1])
	offs[0] = 0
	s.idx, s.offs = idx, offs
}

// NewSequence builds a sequence from instances (any order).
func NewSequence(id int, window temporal.Interval, instances []Instance) *Sequence {
	s := &Sequence{ID: id, Window: window, Instances: instances}
	s.sortAndIndex()
	return s
}

// InstancesOf returns the indexes (into Instances) of all instances of the
// event, in chronological order; empty for an event the sequence lacks.
// The result shares the sequence's index and must not be modified.
func (s *Sequence) InstancesOf(e EventID) []int32 {
	if e < 0 || int(e) >= len(s.offs)-1 {
		return nil
	}
	lo, hi := s.offs[e], s.offs[e+1]
	return s.idx[lo:hi:hi]
}

// Events returns the distinct events occurring in the sequence, in id
// order. The L1 scan uses it to visit each sequence once instead of
// probing every vocabulary entry against every sequence; a counting pass
// sizes the result so that each call allocates once.
func (s *Sequence) Events() []EventID {
	n := 0
	for e := 0; e+1 < len(s.offs); e++ {
		if s.offs[e+1] > s.offs[e] {
			n++
		}
	}
	out := make([]EventID, 0, n)
	for e := 0; e+1 < len(s.offs); e++ {
		if s.offs[e+1] > s.offs[e] {
			out = append(out, EventID(e))
		}
	}
	return out
}

// Has reports whether at least one instance of e occurs in the sequence.
func (s *Sequence) Has(e EventID) bool { return len(s.InstancesOf(e)) > 0 }

// Len returns the number of instances (|S| of Def 3.9).
func (s *Sequence) Len() int { return len(s.Instances) }

// DB is the temporal sequence database DSEQ (Def 3.10).
type DB struct {
	Vocab     *Vocab
	Sequences []*Sequence
}

// Size returns |DSEQ|, the number of sequences.
func (db *DB) Size() int { return len(db.Sequences) }

// Stats summarizes the database like paper Table IV.
type Stats struct {
	NumSequences         int
	NumVariables         int
	NumDistinctEvents    int
	AvgInstancesPerSeq   float64
	TotalInstances       int
	MaxInstancesPerEvent int
}

// Stats computes the Table IV characteristics of the database.
func (db *DB) Stats() Stats {
	st := Stats{NumSequences: db.Size(), NumDistinctEvents: db.Vocab.Size()}
	vars := make(map[string]bool)
	for _, d := range db.Vocab.defs {
		vars[d.Series] = true
	}
	st.NumVariables = len(vars)
	perEvent := make([]int, db.Vocab.Size())
	for _, s := range db.Sequences {
		st.TotalInstances += s.Len()
		for e := 0; e+1 < len(s.offs); e++ {
			perEvent[e] += int(s.offs[e+1] - s.offs[e])
		}
	}
	if st.NumSequences > 0 {
		st.AvgInstancesPerSeq = float64(st.TotalInstances) / float64(st.NumSequences)
	}
	for _, n := range perEvent {
		if n > st.MaxInstancesPerEvent {
			st.MaxInstancesPerEvent = n
		}
	}
	return st
}

// SplitOptions controls the symbolic-database conversion (paper §IV-B2).
// Exactly one of WindowLength or NumWindows must be set.
type SplitOptions struct {
	// WindowLength is the duration t of each sequence window.
	WindowLength temporal.Duration
	// NumWindows splits the observation period into this many equal windows
	// instead (the paper's "split into 4 equal length sequences" example).
	NumWindows int
	// Overlap is t_ov, the overlap between consecutive windows
	// (0 <= Overlap < window length). Overlap = t_max preserves all
	// patterns; Overlap = 0 risks losing patterns cut by a window boundary
	// (Fig 3).
	Overlap temporal.Duration
}

// Validate checks the split geometry against the database without
// converting anything: exactly one of WindowLength and NumWindows must be
// set, the resolved window must be non-empty, and the overlap must fit
// inside it. The prepared-dataset façade uses it to reject bad geometry
// at Prepare time instead of at the first (lazy) conversion.
func (o SplitOptions) Validate(src timeseries.SymbolSource) error {
	_, err := o.resolve(src)
	return err
}

// resolve returns the effective window length after full geometry
// validation — the shared front half of Convert and ConvertShards.
func (o SplitOptions) resolve(src timeseries.SymbolSource) (temporal.Duration, error) {
	w, err := o.windowLength(src)
	if err != nil {
		return 0, err
	}
	if o.Overlap < 0 || o.Overlap >= w {
		return 0, fmt.Errorf("events: overlap %d out of [0,%d)", o.Overlap, w)
	}
	return w, nil
}

func (o SplitOptions) windowLength(src timeseries.SymbolSource) (temporal.Duration, error) {
	switch {
	case o.WindowLength > 0 && o.NumWindows > 0:
		return 0, fmt.Errorf("events: set either WindowLength or NumWindows, not both")
	case o.WindowLength > 0:
		return o.WindowLength, nil
	case o.NumWindows > 0:
		total := src.End() - src.Start()
		w := total / temporal.Duration(o.NumWindows)
		if w <= 0 {
			return 0, fmt.Errorf("events: %d windows over %d ticks leaves empty windows", o.NumWindows, total)
		}
		return w, nil
	default:
		return 0, fmt.Errorf("events: SplitOptions requires WindowLength or NumWindows")
	}
}

// seriesRuns holds the maximal symbol runs of one series, pre-interned
// against the conversion's vocabulary.
type seriesRuns struct {
	name      string
	intervals []temporal.Interval
	eventIDs  []EventID
}

// buildRuns extracts every series' maximal symbol runs with the
// touching-interval convention ([run start, next run start)) and interns
// the (series, symbol) events into a fresh vocabulary. Event ids depend
// only on the symbolic data, not on the window geometry, so every window
// cut from the same runs shares the vocabulary. Consuming the source
// through AppendRuns keeps the conversion oblivious to the backing
// representation — in-memory symbol slices and mmap'd run-length columns
// produce identical vocabularies and intervals.
func buildRuns(src timeseries.SymbolSource) (*Vocab, []seriesRuns) {
	vocab := NewVocab()
	n := src.NumSeries()
	start, step := src.Start(), src.Step()
	all := make([]seriesRuns, 0, n)
	var buf []timeseries.Run
	for i := 0; i < n; i++ {
		name, alpha := src.SeriesName(i), src.SeriesAlphabet(i)
		buf = src.AppendRuns(i, buf[:0])
		sr := seriesRuns{name: name}
		for _, r := range buf {
			iv := temporal.NewInterval(start+temporal.Time(r.First)*step, start+temporal.Time(r.Last+1)*step)
			sr.intervals = append(sr.intervals, iv)
			sr.eventIDs = append(sr.eventIDs, vocab.Define(name, alpha[r.Symbol]))
		}
		all = append(all, sr)
	}
	return vocab, all
}

// windowsOf enumerates the window intervals of the split: length w,
// consecutive windows opt.Overlap apart, the last one clipped at the
// observation end.
func windowsOf(src timeseries.SymbolSource, w, overlap temporal.Duration) []temporal.Interval {
	stride := w - overlap
	start, end := src.Start(), src.End()
	var out []temporal.Interval
	for ws := start; ws < end; ws += stride {
		we := ws + w
		if we > end {
			we = end
		}
		out = append(out, temporal.NewInterval(ws, we))
		if we == end {
			break
		}
	}
	return out
}

// cutWindow builds the temporal sequence of one window: every run
// intersecting the window becomes an instance, clipped at the window
// boundaries. A series' runs are ascending and disjoint, so the ones
// intersecting the window are a contiguous range: a binary search finds
// the first run ending after the window starts, and the scan stops at the
// first run starting at or after its end.
func cutWindow(id int, window temporal.Interval, all []seriesRuns) *Sequence {
	var instances []Instance
	for _, sr := range all {
		first := sort.Search(len(sr.intervals), func(i int) bool { return sr.intervals[i].End > window.Start })
		for i := first; i < len(sr.intervals) && sr.intervals[i].Start < window.End; i++ {
			if clipped, ok := sr.intervals[i].Clip(window.Start, window.End); ok {
				instances = append(instances, Instance{Event: sr.eventIDs[i], Interval: clipped})
			}
		}
	}
	return NewSequence(id, window, instances)
}

// Convert turns a symbolic database into the temporal sequence database
// DSEQ. Every maximal symbol run of every series becomes an instance with
// the touching-interval convention ([run start, next run start)); runs are
// clipped at window boundaries. Consecutive windows overlap by
// opt.Overlap ticks. Any SymbolSource over the same data converts
// byte-identically.
func Convert(src timeseries.SymbolSource, opt SplitOptions) (*DB, error) {
	w, err := opt.resolve(src)
	if err != nil {
		return nil, err
	}

	vocab, all := buildRuns(src)
	out := &DB{Vocab: vocab}
	for i, window := range windowsOf(src, w, opt.Overlap) {
		out.Sequences = append(out.Sequences, cutWindow(i, window, all))
	}
	return out, nil
}

// SliceSequences returns a database containing only sequences [0, n),
// re-using the vocabulary — the %-of-sequences scalability sweeps.
func (db *DB) SliceSequences(n int) (*DB, error) {
	if n <= 0 || n > db.Size() {
		return nil, fmt.Errorf("events: invalid sequence count %d of %d", n, db.Size())
	}
	return &DB{Vocab: db.Vocab, Sequences: db.Sequences[:n]}, nil
}

// RestrictEvents returns a database whose sequences only retain instances
// of the given events. The vocabulary is shared; sequence IDs and windows
// are preserved. A-HTPGM and the attribute-scalability sweeps use this.
func (db *DB) RestrictEvents(keep map[EventID]bool) *DB {
	out := &DB{Vocab: db.Vocab, Sequences: make([]*Sequence, len(db.Sequences))}
	for i, s := range db.Sequences {
		var ins []Instance
		for _, in := range s.Instances {
			if keep[in.Event] {
				ins = append(ins, in)
			}
		}
		out.Sequences[i] = NewSequence(s.ID, s.Window, ins)
	}
	return out
}
