package dqbatch

import (
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// BatchSource is a Source that cannot be cut into independent spans, so
// the engine's reader goroutine decodes it inline: NextBatch decodes up to
// max records directly into dst (which the engine Resets beforehand),
// classifying every cell once. Malformed records are reported through bad
// (with their 1-based input line) and skipped. NextBatch returns the
// number of rows decoded; io.EOF (possibly alongside a final partial
// count) ends the stream, and any other error aborts the batch.
type BatchSource interface {
	NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error)
}

// NextBatch decodes up to max CSV data rows into dst. Rows with the wrong
// field count and unparsable rows are reported through bad and skipped,
// exactly as Next reports them.
func (s *CSVSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	n := 0
	for n < max {
		row, err := s.nextRow()
		if re, ok := err.(*RecordError); ok {
			bad(re.Line, re.Err)
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if s.dupHeader {
			// Duplicate header names: Next's map semantics keep the last
			// value per name, so round-trip through a scratch map.
			if s.scratch == nil {
				s.scratch = make(dqruntime.Record, len(s.header))
			}
			clear(s.scratch)
			for i, v := range row {
				s.scratch[s.header[i]] = v
			}
			for k, v := range s.scratch {
				dst.SetField(k, v)
			}
		} else {
			for i, v := range row {
				dst.SetField(s.header[i], v)
			}
		}
		dst.EndRow()
		n++
	}
	if n > 0 {
		return n, nil
	}
	return 0, io.EOF
}

// ColumnSource serves an in-memory record set that was columnarized (and
// its OCL values boxed) once, up front. NextBatch hands out zero-copy
// chunk views, so a benchmark or repeated run pays decoding exactly once.
type ColumnSource struct {
	batch dqruntime.ColumnBatch
	next  int
}

// NewColumnSource columnarizes records eagerly; the records are read once
// and may be reused afterwards.
func NewColumnSource(records []dqruntime.Record) *ColumnSource {
	s := &ColumnSource{}
	s.batch.Columnarize(records)
	s.batch.WarmOCLValues()
	return s
}

// Rewind restarts the stream from the first record, keeping the columnar
// form, so one source can feed repeated runs.
func (s *ColumnSource) Rewind() { s.next = 0 }

// NextBatch slices the next chunk view out of the pre-built batch.
func (s *ColumnSource) NextBatch(dst *dqruntime.ColumnBatch, max int, _ func(line int64, err error)) (int, error) {
	rows := s.batch.Rows()
	if s.next >= rows {
		return 0, io.EOF
	}
	hi := s.next + max
	if hi > rows {
		hi = rows
	}
	s.batch.SliceInto(dst, s.next, hi)
	n := hi - s.next
	s.next = hi
	return n, nil
}
