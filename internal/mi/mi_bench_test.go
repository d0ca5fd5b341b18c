package mi

import (
	"fmt"
	"math/rand"
	"testing"

	"ftpm/internal/datagen"
	"ftpm/internal/paperex"
	"ftpm/internal/timeseries"
)

// BenchmarkNMI measures one pairwise NMI evaluation at a realistic series
// length (one month of 5-minute samples).
func BenchmarkNMI(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(name string) *timeseries.SymbolicSeries {
		s := &timeseries.SymbolicSeries{Name: name, Step: 300, Alphabet: []string{"Off", "On"}}
		cur := 0
		for i := 0; i < 8640; i++ {
			if rng.Float64() < 0.1 {
				cur = rng.Intn(2)
			}
			s.Symbols = append(s.Symbols, cur)
		}
		return s
	}
	x, y := mk("x"), mk("y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NMI(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputePairwise measures the full A-HTPGM setup cost on the
// paper's Table I database; on a wide database (two NIST-profile replicas
// side by side, 144 series of 3504 samples) serially and on two workers;
// on the SmartCity profile, whose weather series have multi-state
// alphabets and so several bitmaps per series; and the event-level table
// of the wide database.
func BenchmarkComputePairwise(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		db := paperex.SymbolicDB()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ComputePairwise(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	db := wideDB(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("wide/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputePairwiseWorkers(db, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("smartcity", func(b *testing.B) {
		city, err := datagen.SmartCity().Generate(datagen.Options{SequenceFraction: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ComputePairwise(city); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event/wide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ComputeEventPairwise(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wideDB places two NIST-profile replicas side by side: 144 series of
// 3504 samples with the profile's correlation structure within each
// replica.
func wideDB(tb testing.TB) *timeseries.SymbolicDB {
	tb.Helper()
	var all []*timeseries.SymbolicSeries
	for r := 0; r < 2; r++ {
		db, err := datagen.NIST().Generate(datagen.Options{SequenceFraction: 0.05, SeedOffset: int64(r)})
		if err != nil {
			tb.Fatal(err)
		}
		for _, s := range db.Series {
			s.Name = fmt.Sprintf("R%d_%s", r, s.Name)
			all = append(all, s)
		}
	}
	db, err := timeseries.NewSymbolicDB(all...)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkComputeEventPairwise measures the event-level extension's
// setup cost (quadratic in events rather than series).
func BenchmarkComputeEventPairwise(b *testing.B) {
	db := paperex.SymbolicDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeEventPairwise(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMuForDensity measures threshold selection over growing pair
// counts.
func BenchmarkMuForDensity(b *testing.B) {
	for _, nSeries := range []int{8, 32} {
		b.Run(fmt.Sprintf("series=%d", nSeries), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			var ss []*timeseries.SymbolicSeries
			for i := 0; i < nSeries; i++ {
				s := &timeseries.SymbolicSeries{
					Name: fmt.Sprintf("s%d", i), Step: 1, Alphabet: []string{"a", "b"},
				}
				for j := 0; j < 500; j++ {
					s.Symbols = append(s.Symbols, rng.Intn(2))
				}
				ss = append(ss, s)
			}
			db, err := timeseries.NewSymbolicDB(ss...)
			if err != nil {
				b.Fatal(err)
			}
			pw, err := ComputePairwise(db)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pw.MuForDensity(0.6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
