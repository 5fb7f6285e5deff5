package dqbatch

import (
	"math"
	"sort"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
)

// shard accumulates statistics for one worker. Each worker owns exactly
// one shard and touches it without synchronization; the engine merges the
// shards single-threaded after the pool drains, so the reduce step never
// contends with the map phase.
type shard struct {
	records int64
	passed  int64
	failed  int64
	chars   map[iso25012.Characteristic]*charAgg
	// byIdx memoizes the charAgg for each result position: a validator's
	// check order is fixed, so after the first record the hot loop is a
	// slice index instead of a map lookup per check. byChar mirrors the
	// memoized characteristics to detect a shape change and fall back.
	byIdx  []*charAgg
	byChar []iso25012.Characteristic
	// latency reservoir: per-chunk amortized per-record validation seconds,
	// overwritten cyclically once full so memory stays bounded.
	samples   []float64
	sampleIdx int
	// pad keeps adjacent shards' hot counters on separate cache lines when
	// the allocator places them contiguously.
	_ [64]byte
}

// charAgg is one characteristic's running statistics inside a shard.
type charAgg struct {
	checks    int64
	passed    int64
	minScore  float64
	maxScore  float64
	sum       exactSum
	exemplars []Exemplar
}

// Exemplar is one retained failure, capped per characteristic so a batch
// with a million failures reports a handful of concrete ones instead of
// drowning the caller.
type Exemplar struct {
	// Record is the 1-based ordinal of the failing record in the input.
	Record int64 `json:"record"`
	// Check names the failing check.
	Check string `json:"check"`
	// Details are the check's diagnostic messages.
	Details []string `json:"details,omitempty"`
}

func newShard() *shard {
	return &shard{chars: make(map[iso25012.Characteristic]*charAgg)}
}

// agg resolves the charAgg for result position i, memoized so that after
// the first record the hot loop is a slice index instead of a map lookup.
func (s *shard) agg(i int, ch iso25012.Characteristic) *charAgg {
	if i < len(s.byIdx) && s.byChar[i] == ch {
		return s.byIdx[i]
	}
	ca := s.chars[ch]
	if ca == nil {
		ca = &charAgg{minScore: 1}
		s.chars[ch] = ca
	}
	if i == len(s.byIdx) {
		s.byIdx = append(s.byIdx, ca)
		s.byChar = append(s.byChar, ch)
	}
	return ca
}

// observeBatch folds one columnar batch report into the shard. The fold is
// row-outer — for each row, across checks — so exemplars are captured in
// record order, exactly as a sequential per-record run captures them.
func (s *shard) observeBatch(base int64, rep *dqruntime.BatchReport, maxExemplars int) (pass, fail uint64) {
	rows := rep.Rows()
	nres := len(rep.Results)
	for r := 0; r < rows; r++ {
		s.records++
		rowPassed := true
		for i := 0; i < nres; i++ {
			res := &rep.Results[i]
			ca := s.agg(i, res.Characteristic)
			ca.checks++
			score := res.Score[r]
			ca.sum.add(score)
			if score < ca.minScore {
				ca.minScore = score
			}
			if score > ca.maxScore {
				ca.maxScore = score
			}
			if res.Passed[r] {
				ca.passed++
				continue
			}
			rowPassed = false
			if len(ca.exemplars) < maxExemplars {
				ca.exemplars = append(ca.exemplars, Exemplar{
					Record:  base + int64(r),
					Check:   res.Check,
					Details: append([]string(nil), res.Details[r]...),
				})
			}
		}
		if rowPassed {
			s.passed++
			pass++
		} else {
			s.failed++
			fail++
		}
	}
	return pass, fail
}

// sample records one per-record validation latency into the reservoir.
func (s *shard) sample(seconds float64, cap int) {
	if len(s.samples) < cap {
		s.samples = append(s.samples, seconds)
		return
	}
	s.samples[s.sampleIdx%cap] = seconds
	s.sampleIdx++
}

// CharacteristicStats is the merged view of one ISO/IEC 25012
// characteristic across the whole batch.
type CharacteristicStats struct {
	// Characteristic is the measured ISO/IEC 25012 characteristic.
	Characteristic iso25012.Characteristic `json:"characteristic"`
	// Checks counts check executions; Passed counts the passing ones.
	Checks int64 `json:"checks"`
	Passed int64 `json:"passed"`
	// MinScore/MaxScore bound the scores seen; MeanScore is the average.
	MinScore  float64 `json:"min_score"`
	MaxScore  float64 `json:"max_score"`
	MeanScore float64 `json:"mean_score"`
	// SumScore is the raw score total behind MeanScore, kept so downstream
	// aggregation (the windowed quality series) merges exactly instead of
	// re-multiplying a rounded mean.
	SumScore float64 `json:"-"`
	// Exemplars are retained failures, capped per characteristic.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// mergeShards folds the per-worker shards into sorted per-characteristic
// statistics plus the pooled latency reservoir. Score sums are exact, so
// the result is the same bits whichever worker scored which chunk.
func mergeShards(shards []*shard, maxExemplars int) (stats []CharacteristicStats, samples []float64) {
	merged := map[iso25012.Characteristic]*charAgg{}
	for _, s := range shards {
		for ch, ca := range s.chars {
			m := merged[ch]
			if m == nil {
				m = &charAgg{minScore: 1}
				merged[ch] = m
			}
			m.checks += ca.checks
			m.passed += ca.passed
			m.sum.merge(&ca.sum)
			if ca.minScore < m.minScore {
				m.minScore = ca.minScore
			}
			if ca.maxScore > m.maxScore {
				m.maxScore = ca.maxScore
			}
			// Pool every shard's exemplars; the cap is applied after the
			// global sort below, so the retained set is the first failures
			// by record ordinal regardless of which worker saw them —
			// reports stay byte-identical across worker counts and runs.
			m.exemplars = append(m.exemplars, ca.exemplars...)
		}
		samples = append(samples, s.samples...)
	}
	for ch, m := range merged {
		sum := m.sum.value()
		cs := CharacteristicStats{
			Characteristic: ch,
			Checks:         m.checks,
			Passed:         m.passed,
			MinScore:       m.minScore,
			MaxScore:       m.maxScore,
			SumScore:       sum,
			Exemplars:      m.exemplars,
		}
		if m.checks > 0 {
			cs.MeanScore = sum / float64(m.checks)
		}
		sort.Slice(cs.Exemplars, func(i, j int) bool { return cs.Exemplars[i].Record < cs.Exemplars[j].Record })
		if len(cs.Exemplars) > maxExemplars {
			cs.Exemplars = cs.Exemplars[:maxExemplars]
		}
		stats = append(stats, cs)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Characteristic < stats[j].Characteristic })
	return stats, samples
}

// exactSum accumulates float64 values without rounding error: Shewchuk's
// non-overlapping partials, as in Python's math.fsum. The sum it returns
// is the correctly rounded total of everything added, so it does not
// depend on the order of the additions — a score sum comes out the same
// at any worker count, chunk size or chunk assignment. Scores are finite,
// so the infinity and NaN handling of a general fsum is left out.
type exactSum struct {
	partials []float64
}

// add folds x into the partials.
func (s *exactSum) add(x float64) {
	i := 0
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			s.partials[i] = lo
			i++
		}
		x = hi
	}
	s.partials = append(s.partials[:i], x)
}

// merge folds every partial of o into s.
func (s *exactSum) merge(o *exactSum) {
	for _, x := range o.partials {
		s.add(x)
	}
}

// value returns the correctly rounded sum (round half to even).
func (s *exactSum) value() float64 {
	p := s.partials
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi := p[n]
	var lo float64
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// Half-way case: the partials below lo push the total past the tie, so
	// round away from hi when they share lo's sign.
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
