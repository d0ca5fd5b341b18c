package temporal

import "fmt"

// Time is a point in time measured in ticks. The library does not impose a
// unit; the data-transformation layer conventionally uses seconds.
type Time = int64

// Duration is a span of time in the same ticks as Time.
type Duration = int64

// Interval is a closed-open time interval [Start, End). Instances produced
// by the symbolic conversion have End equal to the start of the following
// run, so consecutive instances of one series touch exactly as in paper
// Table III.
type Interval struct {
	Start Time
	End   Time
}

// NewInterval returns the interval [start, end). It panics if end < start;
// zero-length intervals are permitted (an event observed at a single
// sampling instant that is immediately overwritten).
func NewInterval(start, end Time) Interval {
	if end < start {
		panic(fmt.Sprintf("temporal: invalid interval [%d,%d)", start, end))
	}
	return Interval{Start: start, End: end}
}

// Duration returns End - Start.
func (iv Interval) Duration() Duration { return iv.End - iv.Start }

// Contains reports whether t lies inside [Start, End).
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Clip returns the part of iv inside [lo, hi) and whether it is non-empty.
func (iv Interval) Clip(lo, hi Time) (Interval, bool) {
	s, e := iv.Start, iv.End
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	if e <= s {
		return Interval{}, false
	}
	return Interval{Start: s, End: e}, true
}

// Before orders intervals chronologically by start time; ties are broken
// by DESCENDING end so that, among instances starting together, the
// longer (containing) one comes first. This makes Def 3.7's non-strict
// "t_s1 <= t_s2" effective: a same-start nest classifies as Contain with
// the container in the earlier role. It is the order used to arrange
// event instances into temporal sequences (Def 3.9).
func (iv Interval) Before(o Interval) bool {
	if iv.Start != o.Start {
		return iv.Start < o.Start
	}
	return iv.End > o.End
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End)
}

// Relation is one of the three temporal relations of the paper (plus None
// when no relation holds, e.g. two instances violating t_max or the overlap
// minimum).
type Relation uint8

const (
	// None indicates that no relation holds between the pair.
	None Relation = iota
	// Follow: E1 -> E2, the first instance ends (within epsilon) before the
	// second starts (Def 3.6).
	Follow
	// Contain: E1 contains E2 (Def 3.7).
	Contain
	// Overlap: E1 overlaps the start of E2 by at least d_o (Def 3.8).
	Overlap
)

// NumRelations is the number of real relations (excluding None).
const NumRelations = 3

// String returns the paper's notation for the relation.
func (r Relation) String() string {
	switch r {
	case None:
		return "none"
	case Follow:
		return "->" // Follows
	case Contain:
		return "contains"
	case Overlap:
		return "overlaps"
	}
	return fmt.Sprintf("Relation(%d)", uint8(r))
}

// Symbol returns the compact single-rune notation used in pattern rendering.
func (r Relation) Symbol() string {
	switch r {
	case Follow:
		return "→"
	case Contain:
		return "≽"
	case Overlap:
		return "G"
	}
	return "?"
}

// Valid reports whether r is one of the three defined relations.
func (r Relation) Valid() bool { return r >= Follow && r <= Overlap }

// Config carries the relation parameters of Definitions 3.6-3.8.
type Config struct {
	// Epsilon is the tolerance buffer added to interval endpoints. Must be
	// non-negative and should be much smaller than MinOverlap.
	Epsilon Duration
	// MinOverlap is d_o, the minimal overlapping duration for the Overlap
	// relation. Must be positive.
	MinOverlap Duration
}

// DefaultConfig returns the relation parameters used throughout the
// evaluation: no endpoint tolerance and a one-tick minimal overlap.
func DefaultConfig() Config { return Config{Epsilon: 0, MinOverlap: 1} }

// Validate checks the constraint 0 <= epsilon < d_o from Def 3.8.
func (c Config) Validate() error {
	if c.Epsilon < 0 {
		return fmt.Errorf("temporal: epsilon must be non-negative, got %d", c.Epsilon)
	}
	if c.MinOverlap <= 0 {
		return fmt.Errorf("temporal: minimal overlap d_o must be positive, got %d", c.MinOverlap)
	}
	if c.Epsilon >= c.MinOverlap {
		return fmt.Errorf("temporal: epsilon (%d) must be smaller than d_o (%d)", c.Epsilon, c.MinOverlap)
	}
	return nil
}

// Classify determines the relation between two event instances whose
// intervals are a and b, where a is the chronologically earlier instance:
// the caller must guarantee a.Start <= b.Start (ties broken by End, see
// Interval.Before). Exactly one relation (or None) is returned:
//
//	Follow:  b.Start >= a.End - epsilon
//	Contain: a.Start <= b.Start && a.End + epsilon >= b.End
//	Overlap: a.Start <  b.Start && a.End + epsilon <  b.End &&
//	         a.End - b.Start >= d_o - epsilon
//
// The if/else precedence makes the outcome unique even at tolerance
// boundaries, matching the paper's requirement that relations be mutually
// exclusive.
func (c Config) Classify(a, b Interval) Relation {
	if b.Start < a.Start || (b.Start == a.Start && b.End > a.End) {
		panic("temporal: Classify requires the intervals in canonical order (Before)")
	}
	switch {
	case b.Start >= a.End-c.Epsilon:
		return Follow
	case a.Start <= b.Start && a.End+c.Epsilon >= b.End:
		return Contain
	case a.Start < b.Start && a.End+c.Epsilon < b.End && a.End-b.Start >= c.MinOverlap-c.Epsilon:
		return Overlap
	default:
		return None
	}
}

// AlwaysRelates reports whether Classify returns a relation, never None,
// for every canonically ordered pair of intervals with integer endpoints:
// whether d_o <= 2ε+1. None
// needs a.Start < b.Start, an overlap a.End - b.Start of at least ε+1 (not
// Follow) and below d_o - ε (not Overlap), and no integer lies in
// [ε+1, d_o-ε) once d_o <= 2ε+1. A same-start pair always classifies as
// Contain, since the canonical order puts the longer interval first.
func (c Config) AlwaysRelates() bool { return c.MinOverlap <= 2*c.Epsilon+1 }
