// Differential fuzz targets for the NDJSON fast paths, each against its
// slow oracle:
//
//	go test -run '^$' -fuzz '^FuzzDecodeLine$' -fuzztime 20s ./internal/dqbatch/
//	go test -run '^$' -fuzz '^FuzzSpanSources$' -fuzztime 20s -fuzzminimizetime 0 ./internal/dqbatch/
//
// FuzzSpanSources drives the concurrent engine, whose coverage varies with
// goroutine scheduling: nearly every input looks new, and minimizing each
// one would eat the whole fuzz budget, hence -fuzzminimizetime 0. Without
// -fuzz both run their seed corpus as ordinary tests.
package dqbatch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// FuzzDecodeLine pins the fast flat-JSON parser to the canonical decoder.
// Whenever fastDecodeLine accepts a line, slowDecodeLine accepts it with
// identical cells; when it bails, it leaves no partial row behind. And the
// span decoder as a whole — fast path plus fallback — agrees with
// NDJSONSource.Next on every line: same record, or the same error text.
func FuzzDecodeLine(f *testing.F) {
	for _, line := range strings.Split(trickyNDJSON(), "\n") {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.Contains(line, "\n") {
			return // one line per case; spans cover multi-line input
		}
		raw := []byte(line)
		var fast dqruntime.ColumnBatch
		var names [][]byte
		if fastDecodeLine(raw, &fast, &names) {
			var slow dqruntime.ColumnBatch
			var slowErr error
			if slowDecodeLine(raw, 1, &slow, func(_ int64, err error) { slowErr = err }) != 1 {
				t.Fatalf("fast path accepted %q, slow path rejected it: %v", line, slowErr)
			}
			got, want := fast.RowView(0, dqruntime.Record{}), slow.RowView(0, dqruntime.Record{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cells diverged for %q:\nfast: %v\nslow: %v", line, got, want)
			}
		} else {
			for _, c := range fast.Columns() {
				if len(c.Raw) != 0 {
					t.Fatalf("fast path bailed on %q but left cells behind in %q", line, c.Name)
				}
			}
		}

		var batch dqruntime.ColumnBatch
		var spanErr error
		n := decodeNDJSONSpan(Span{Data: raw, FirstLine: 1}, &batch, func(_ int64, err error) { spanErr = err })
		rec, err := NewNDJSONSource(strings.NewReader(line)).Next(dqruntime.Record{})
		var re *RecordError
		switch {
		case err == io.EOF: // blank line
			if n != 0 || spanErr != nil {
				t.Fatalf("blank line %q decoded to %d rows, %v", line, n, spanErr)
			}
		case errors.As(err, &re):
			if n != 0 || spanErr == nil || spanErr.Error() != re.Err.Error() {
				t.Fatalf("%q: span decoder gave %d rows, error %v; Next: %v", line, n, spanErr, re.Err)
			}
		case err != nil:
			t.Fatalf("%q: Next: %v", line, err)
		default:
			if n != 1 || spanErr != nil {
				t.Fatalf("%q: Next decoded it, span decoder gave %d rows, %v", line, n, spanErr)
			}
			if got := batch.RowView(0, dqruntime.Record{}); !reflect.DeepEqual(got, rec) {
				t.Fatalf("%q: span decoder %v, Next %v", line, got, rec)
			}
		}
	})
}

// FuzzSpanSources feeds the same bytes through the reader-backed
// NDJSONSource — one byte per Read — and through MmapNDJSONSource, and
// requires byte-identical reports (or the same error).
func FuzzSpanSources(f *testing.F) {
	// The tricky tail alone: whole-fixture seeds make every new input take
	// minutes to minimize.
	f.Add([]byte(strings.TrimPrefix(trickyNDJSON(), parityNDJSON())))
	f.Add([]byte("{\"a\": \"1\"}\r\n\n{bad\n{\"a\": \"x\", \"b\": \"y\"}"))
	f.Add([]byte(""))
	v := parityValidator(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		render := func(src Source) string {
			res, err := Run(context.Background(), v, src, Options{Workers: 2, ChunkSize: 3, Registry: obs.NewRegistry(),
				CrossRecord: []dqruntime.StatefulCheck{UniquenessCheckForTest()}})
			normalize(res)
			var b bytes.Buffer
			if rerr := RenderReport(&b, res, "json"); rerr != nil {
				t.Fatal(rerr)
			}
			if err != nil {
				b.WriteString("error: " + err.Error())
			}
			return b.String()
		}
		reader := render(NewNDJSONSource(iotest.OneByteReader(bytes.NewReader(doc))))
		mapped := render(NewMmapNDJSONSource(doc))
		if reader != mapped {
			t.Fatalf("reports diverged for %q:\nreader:\n%s\nmmap:\n%s", doc, reader, mapped)
		}
	})
}
