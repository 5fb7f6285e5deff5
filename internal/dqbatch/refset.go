package dqbatch

import (
	"context"
	"fmt"
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// BuildKeySet streams src once and collects its distinct keys over the
// given fields — the first pass of the two-pass referential mode. The
// returned set plugs directly into dqruntime.ReferentialCheck.Ref for the
// validation pass. Records are decoded chunk by chunk through the same
// span or batch decoders Run uses, and keys are read straight from the
// columns' raw cells, built exactly as dqruntime.KeyOf builds them.
// Malformed records are skipped (a reference dataset's decode errors
// surface when that dataset is itself validated); any other source error
// aborts. The set is exact and unbounded: a reference dataset is assumed
// to fit in memory, unlike the validated stream.
func BuildKeySet(ctx context.Context, src Source, fields []string) (map[string]struct{}, error) {
	src, _ = unwrapProgress(src)
	set := make(map[string]struct{})
	var batch dqruntime.ColumnBatch
	cols := make([]*dqruntime.Column, len(fields))
	row := make(dqruntime.Record, len(fields))
	skip := func(int64, error) {}
	for {
		if err := ctx.Err(); err != nil {
			return set, err
		}
		batch.Reset()
		n, err := readChunk(src, &batch, defaultChunkSize, skip)
		for i, f := range fields {
			cols[i] = batch.Col(f)
		}
		for r := 0; r < n; r++ {
			if len(cols) == 1 && cols[0] != nil {
				set[cols[0].Raw[r]] = struct{}{}
				continue
			}
			for i, c := range cols {
				row[fields[i]] = ""
				if c != nil {
					row[fields[i]] = c.Raw[r]
				}
			}
			set[dqruntime.KeyOf(fields, row)] = struct{}{}
		}
		if err == io.EOF {
			return set, nil
		}
		if err != nil {
			return set, err
		}
	}
}

// readChunk decodes src's next chunk into dst on the calling goroutine:
// NextSpan then DecodeSpan for a SpanSource, NextBatch for a BatchSource.
func readChunk(src Source, dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	switch s := src.(type) {
	case SpanSource:
		sp, err := s.NextSpan(max)
		if err != nil {
			return 0, err
		}
		return s.DecodeSpan(sp, dst, bad), nil
	case BatchSource:
		return s.NextBatch(dst, max, bad)
	}
	return 0, notSource(src)
}

// notSource is the error for a value that is neither source shape.
func notSource(src Source) error {
	return fmt.Errorf("dqbatch: %T is neither a SpanSource nor a BatchSource", src)
}
