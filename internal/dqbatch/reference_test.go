// The sequential per-record reference: the row engine the batch engine
// replaced, kept as an oracle. It decodes one record at a time through the
// canonical decoders (NDJSONSource.Next, CSVSource.Next), validates it with
// ValidateInto, folds cross-record state with Observe and aggregates into a
// single shard — no chunks, no columns, no goroutines. The golden parity
// suites diff Run's reports against it.
package dqbatch

import (
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// rowSource is what the reference reads: one record per call, a
// *RecordError for a malformed one, io.EOF at the end.
type rowSource interface {
	Next(rec dqruntime.Record) (dqruntime.Record, error)
}

// sliceRows serves an in-memory record slice to the reference.
type sliceRows struct {
	recs []dqruntime.Record
	next int
}

func (s *sliceRows) Next(dqruntime.Record) (dqruntime.Record, error) {
	if s.next >= len(s.recs) {
		return nil, io.EOF
	}
	s.next++
	return s.recs[s.next-1], nil
}

// referenceRun validates src record by record and returns the Result Run
// must reproduce (timing fields aside). Workers is echoed from opts so the
// two reports compare whole.
func referenceRun(v *dqruntime.Validator, src rowSource, opts Options) (*Result, error) {
	workers, _, maxExemplars, maxDecode := opts.limits()
	res := &Result{Workers: workers}
	sh := newShard()
	cross := make([][]dqruntime.CheckState, len(opts.CrossRecord))
	for i, sc := range opts.CrossRecord {
		cross[i] = sc.NewStates(1, maxExemplars)
	}
	rep := &dqruntime.Report{}
	rec := make(dqruntime.Record, 8)
	var readErr error
	for ordinal := int64(1); ; {
		got, err := src.Next(rec)
		if re, ok := err.(*RecordError); ok {
			res.Malformed++
			if len(res.DecodeErrors) < maxDecode {
				res.DecodeErrors = append(res.DecodeErrors, DecodeError{Line: re.Line, Error: re.Err.Error()})
			}
			continue
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		v.ValidateInto(got, rep)
		for _, states := range cross {
			states[0].Observe(ordinal, got)
		}
		sh.observe(ordinal, rep, maxExemplars)
		ordinal++
	}
	res.tally([]*shard{sh}, cross, maxExemplars)
	return res, readErr
}

// observe folds one record's validation report into the shard — the
// per-record twin of observeBatch.
func (s *shard) observe(ordinal int64, rep *dqruntime.Report, maxExemplars int) {
	s.records++
	passed := true
	for i := range rep.Results {
		res := &rep.Results[i]
		ca := s.agg(i, res.Characteristic)
		ca.checks++
		ca.sum.add(res.Score)
		if res.Score < ca.minScore {
			ca.minScore = res.Score
		}
		if res.Score > ca.maxScore {
			ca.maxScore = res.Score
		}
		if res.Passed {
			ca.passed++
			continue
		}
		passed = false
		if len(ca.exemplars) < maxExemplars {
			ca.exemplars = append(ca.exemplars, Exemplar{
				Record:  ordinal,
				Check:   res.Check,
				Details: append([]string(nil), res.Details...),
			})
		}
	}
	if passed {
		s.passed++
	} else {
		s.failed++
	}
}
