package main

import (
	"bytes"
	"fmt"
	"strconv"

	"ftpm/internal/csvio"
	"ftpm/internal/datagen"
	"ftpm/internal/timeseries"
)

// Inputs come from the seeded datagen profiles; the server only ever sees
// the CSV and NDJSON bytes made here. Each generated dataset of a run gets
// its own SeedOffset, derived from the workload seed and the dataset's
// index, so the same seed always gives the same bytes.

// seedOffset is the datagen SeedOffset of dataset k of a run with the given
// seed; k may be negative for set-up datasets.
func seedOffset(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// days is the number of one-day windows of a NIST-shaped dataset.
func days(db *timeseries.SymbolicDB) int { return db.Len() / samplesPerDay }

// samplesPerDay is the NIST and SmartCity profiles' samples per window.
const samplesPerDay = 48

// generate makes dataset k of profile p with the given share of its
// sequences and variables.
func generate(p datagen.Profile, seqFrac, attrFrac float64, seed int64, k int) (*timeseries.SymbolicDB, error) {
	return p.Generate(datagen.Options{SequenceFraction: seqFrac, AttributeFraction: attrFrac, SeedOffset: seedOffset(seed, k)})
}

// daysFraction is the SequenceFraction of a profile that yields exactly n
// sequences (datagen truncates, so aim half a sequence above).
func daysFraction(p datagen.Profile, n int) float64 {
	return (float64(n) + 0.5) / float64(p.Sequences)
}

// symbolicCSV is the wide symbolic layout of db.
func symbolicCSV(db *timeseries.SymbolicDB) ([]byte, error) {
	var buf bytes.Buffer
	if err := csvio.WriteSymbolic(&buf, db); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// onValue and offValue are the readings written for the binary profiles'
// On and Off symbols; numeric uploads use threshold 0.5, which maps them
// back exactly.
const (
	onValue   = "0.9"
	offValue  = "0"
	threshold = 0.5
)

func reading(s *timeseries.SymbolicSeries, i int) string {
	if s.SymbolAt(i) == "On" {
		return onValue
	}
	return offValue
}

// numericCSV is the wide numeric layout of the samples [from, to) of a
// binary database.
func numericCSV(db *timeseries.SymbolicDB, from, to int) []byte {
	buf := make([]byte, 0, (to-from)*(len(db.Series)*2+12))
	buf = append(buf, "time"...)
	for _, s := range db.Series {
		buf = append(buf, ',')
		buf = append(buf, s.Name...)
	}
	buf = append(buf, '\n')
	for i := from; i < to; i++ {
		buf = strconv.AppendInt(buf, db.Series[0].TimeAt(i), 10)
		for _, s := range db.Series {
			buf = append(buf, ',')
			buf = append(buf, reading(s, i)...)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// ndjsonRows is the samples [from, to) of a binary database as NDJSON
// append rows, one {"time":…,"values":{…}} object per grid point.
func ndjsonRows(db *timeseries.SymbolicDB, from, to int) []byte {
	var buf []byte
	for i := from; i < to; i++ {
		buf = append(buf, `{"time":`...)
		buf = strconv.AppendInt(buf, db.Series[0].TimeAt(i), 10)
		buf = append(buf, `,"values":{`...)
		for j, s := range db.Series {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, s.Name)
			buf = append(buf, ':')
			buf = append(buf, reading(s, i)...)
		}
		buf = append(buf, "}}\n"...)
	}
	return buf
}

// replicas generates r independent NIST datasets on one time grid and
// places them side by side, each replica's series prefixed R<i>_: a wide
// dataset with r times the series and the same correlation structure
// within each replica.
func replicas(seqFrac float64, r int, seed int64, k int) (*timeseries.SymbolicDB, error) {
	var all []*timeseries.SymbolicSeries
	for i := 0; i < r; i++ {
		db, err := generate(datagen.NIST(), seqFrac, 1, seed, k*r+i)
		if err != nil {
			return nil, err
		}
		for _, s := range db.Series {
			s.Name = fmt.Sprintf("R%d_%s", i, s.Name)
			all = append(all, s)
		}
	}
	return timeseries.NewSymbolicDB(all...)
}
