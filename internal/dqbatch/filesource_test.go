// Golden parity for the zero-copy ingest path: the memory-mapped NDJSON
// source and the reader-backed one must cut identical spans and produce
// reports byte-identical to the sequential reference on the same bytes —
// JSON and text, at 1 and 8 workers — and OpenFileSource must route every
// input shape to the right implementation (regular files to mmap, pipes
// and empty files to the reader-backed fallback).
package dqbatch

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// trickyNDJSON extends the parity fixture with every shape that makes the
// fast flat-JSON parser bail to the canonical slow path: escapes, unicode,
// exotic numbers, duplicate keys, invalid UTF-8, structural junk. The
// mmap-vs-bufio comparison over it pins that the bail-out heuristics never
// change a decode outcome or an error text.
func trickyNDJSON() string {
	var b strings.Builder
	b.WriteString(parityNDJSON())
	lines := []string{
		`{}`,
		`{ "a" : "spaced" , "b" : "v" }`,
		`{"a": "quote \" inside", "b": "w"}`,
		`{"a": "escé", "b": "raw café"}`,
		`{"café": "non-ascii key", "a": "x"}`,
		`{"a": "tab\tand\nnewline"}`,
		"{\"a\": \"bad utf8 \xff\xfe\"}",
		`{"n": 0}`,
		`{"n": -0}`,
		`{"n": 0.125}`,
		`{"n": 1e3}`,
		`{"n": -2.5E-2}`,
		`{"n": 123456789012345678901234567890}`,
		`{"n": 999999999999999999}`,
		`{"n": 3.141592653589793}`,
		`{"a": true, "b": false}`,
		`{"a": 1, "a": 2}`,
		`{"a": null}`,
		`{"a": [1, 2]}`,
		`{"a": {"nested": true}}`,
		`{"a": "x",}`,
		`{"n": 01}`,
		`{"a": "x"} trailing`,
		`not json at all`,
		`{"a": "unterminated`,
		"   ",
		`{"b": "only-b"}`,
	}
	for i, l := range lines {
		b.WriteString(l)
		if i%5 == 4 {
			b.WriteString("\r\n")
		} else {
			b.WriteString("\n")
		}
	}
	return b.String()
}

func TestMmapBufioGoldenParity(t *testing.T) {
	doc := trickyNDJSON()
	opts := Options{ChunkSize: 64, CrossRecord: []dqruntime.StatefulCheck{UniquenessCheckForTest()}}
	for name, mk := range map[string]func() Source{
		"reader": func() Source { return NewNDJSONSource(strings.NewReader(doc)) },
		"mmap":   func() Source { return NewMmapNDJSONSource([]byte(doc)) },
	} {
		t.Run(name, func(t *testing.T) {
			ref := runParity(t, opts, mk,
				func() rowSource { return NewNDJSONSource(strings.NewReader(doc)) })
			if ref.Records == 0 || ref.Malformed == 0 || ref.Failed == 0 {
				t.Fatalf("degenerate fixture: %+v", ref)
			}
		})
	}
}

// UniquenessCheckForTest keys the parity runs' cross-record state on two
// fields, so the multi-field scratch-buffer path runs under -race in the
// engine.
func UniquenessCheckForTest() dqruntime.StatefulCheck {
	return dqruntime.UniquenessCheck{Fields: []string{"a", "b"}}
}

// TestSpanSourcesAgree pins the two NDJSON span producers to each other:
// over the same bytes — the reader one fed a byte at a time — they cut
// identical spans with identical first lines and byte offsets.
func TestSpanSourcesAgree(t *testing.T) {
	doc := trickyNDJSON() + `{"a": "unterminated final line"}`
	for _, maxLines := range []int{1, 7, 64, 1 << 20} {
		rd := NewNDJSONSource(iotest.OneByteReader(strings.NewReader(doc)))
		mm := NewMmapNDJSONSource([]byte(doc))
		for i := 0; ; i++ {
			a, errA := rd.NextSpan(maxLines)
			b, errB := mm.NextSpan(maxLines)
			if errA != errB {
				t.Fatalf("maxLines=%d span %d: errors diverged: %v vs %v", maxLines, i, errA, errB)
			}
			if errA == io.EOF {
				break
			}
			if string(a.Data) != string(b.Data) || a.FirstLine != b.FirstLine {
				t.Fatalf("maxLines=%d span %d diverged:\nreader (line %d): %q\nmmap (line %d): %q",
					maxLines, i, a.FirstLine, a.Data, b.FirstLine, b.Data)
			}
			if rd.ByteOffset() != mm.ByteOffset() {
				t.Fatalf("maxLines=%d span %d: offsets %d vs %d", maxLines, i, rd.ByteOffset(), mm.ByteOffset())
			}
			var batch dqruntime.ColumnBatch
			rd.DecodeSpan(a, &batch, func(int64, error) {})
		}
		if rd.ByteOffset() != int64(len(doc)) {
			t.Fatalf("maxLines=%d: consumed %d bytes of %d", maxLines, rd.ByteOffset(), len(doc))
		}
	}
}

// TestMmapTooLongLine pins the bounded-memory contract on both NDJSON
// sources: a line over maxLineBytes is a hard error naming the right line,
// raised only after the lines before it are delivered, with the same text
// from NextSpan on either source and from Next.
func TestMmapTooLongLine(t *testing.T) {
	doc := "{\"a\": \"ok\"}\n{\"a\": \"" + strings.Repeat("x", maxLineBytes) + "\"}\n"
	for name, src := range map[string]SpanSource{
		"reader": NewNDJSONSource(strings.NewReader(doc)),
		"mmap":   NewMmapNDJSONSource([]byte(doc)),
	} {
		sp, err := src.NextSpan(16)
		if err != nil || sp.FirstLine != 1 || string(sp.Data) != "{\"a\": \"ok\"}\n" {
			t.Fatalf("%s: NextSpan before oversized line: %q, %v", name, sp.Data, err)
		}
		_, err = src.NextSpan(16)
		if err == nil || err.Error() != "dqbatch: reading line 2: bufio.Scanner: token too long" {
			t.Fatalf("%s: oversized line error = %v", name, err)
		}
	}
	rd := NewNDJSONSource(strings.NewReader(doc))
	rec := make(dqruntime.Record, 2)
	if _, err := rd.Next(rec); err != nil {
		t.Fatalf("first line: %v", err)
	}
	if _, err := rd.Next(rec); err == nil || !strings.Contains(err.Error(), "line 2: bufio.Scanner: token too long") {
		t.Fatalf("Next: oversized line error = %v", err)
	}

	// A line of exactly maxLineBytes is within bounds on both sources.
	edge := strings.Repeat(" ", maxLineBytes-2) + "{}\n"
	for name, src := range map[string]SpanSource{
		"reader": NewNDJSONSource(strings.NewReader(edge)),
		"mmap":   NewMmapNDJSONSource([]byte(edge)),
	} {
		if sp, err := src.NextSpan(16); err != nil || len(sp.Data) != len(edge) {
			t.Fatalf("%s: maxLineBytes line rejected: %d bytes, %v", name, len(sp.Data), err)
		}
	}
}

func TestOpenFileSourceRouting(t *testing.T) {
	dir := t.TempDir()

	ndjson := filepath.Join(dir, "records.ndjson")
	if err := os.WriteFile(ndjson, []byte(`{"a": "1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, closer, err := OpenFileSource(ndjson, "")
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if mmapAvailable {
		if _, ok := src.(*MmapNDJSONSource); !ok {
			t.Fatalf("regular NDJSON file routed to %T, want *MmapNDJSONSource", src)
		}
	} else if _, ok := src.(*NDJSONSource); !ok {
		t.Fatalf("no-mmap platform routed to %T, want *NDJSONSource", src)
	}
	var batch dqruntime.ColumnBatch
	if n, err := readChunk(src, &batch, 16, func(int64, error) {}); n != 1 || err != nil || batch.Col("a").Raw[0] != "1" {
		t.Fatalf("mmap-backed read: %d rows, %v", n, err)
	}

	// Extension picks CSV; the mapped bytes feed the CSV decoder.
	csvPath := filepath.Join(dir, "records.csv")
	if err := os.WriteFile(csvPath, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	csvSrc, csvClose, err := OpenFileSource(csvPath, "")
	if err != nil {
		t.Fatal(err)
	}
	defer csvClose()
	if _, ok := csvSrc.(*CSVSource); !ok {
		t.Fatalf("CSV file routed to %T, want *CSVSource", csvSrc)
	}
	rec, err := csvSrc.(*CSVSource).Next(make(dqruntime.Record, 2))
	if err != nil || rec["a"] != "1" || rec["b"] != "2" {
		t.Fatalf("CSV Next: %v, %v", rec, err)
	}

	// Zero-length input cannot be mapped and must fall back.
	empty := filepath.Join(dir, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	emptySrc, emptyClose, err := OpenFileSource(empty, "")
	if err != nil {
		t.Fatal(err)
	}
	defer emptyClose()
	if _, ok := emptySrc.(*NDJSONSource); !ok {
		t.Fatalf("empty file routed to %T, want *NDJSONSource fallback", emptySrc)
	}
	if _, err := emptySrc.(*NDJSONSource).Next(make(dqruntime.Record, 1)); err != io.EOF {
		t.Fatalf("empty file Next = %v, want io.EOF", err)
	}

	if _, _, err := OpenFileSource(filepath.Join(dir, "missing.ndjson"), ""); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestFileSourcePipeFallsBack routes a non-regular file (a pipe — the
// stdin shape) to the reader-backed source: pipes cannot be mapped.
func TestFileSourcePipeFallsBack(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		w.WriteString(`{"a": "piped"}` + "\n")
		w.Close()
	}()
	src, closer, err := fileSource(r, "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if _, ok := src.(*NDJSONSource); !ok {
		t.Fatalf("pipe routed to %T, want *NDJSONSource fallback", src)
	}
	rec, err := src.(*NDJSONSource).Next(make(dqruntime.Record, 1))
	if err != nil || rec["a"] != "piped" {
		t.Fatalf("pipe Next: %v, %v", rec, err)
	}
}

// TestCountSourcePublishesSpanProgress runs a counted mmap source through
// the engine: progress ends at every decoded record and the exact input
// length, published from the in-order stage.
func TestCountSourcePublishesSpanProgress(t *testing.T) {
	doc := trickyNDJSON()
	var p Progress
	res, err := Run(context.Background(), parityValidator(t), CountSource(NewMmapNDJSONSource([]byte(doc)), &p),
		Options{Workers: 4, ChunkSize: 7, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Records() != res.Records || res.Records == 0 {
		t.Fatalf("progress records = %d, result %d", p.Records(), res.Records)
	}
	if p.Bytes() != int64(len(doc)) {
		t.Fatalf("progress bytes = %d, want %d", p.Bytes(), len(doc))
	}
}

// TestSpanCoverage pins span arithmetic: spans tile the input exactly,
// first lines are correct, and span decoding yields every record the
// canonical per-record decoder yields.
func TestSpanCoverage(t *testing.T) {
	doc := trickyNDJSON()
	src := NewMmapNDJSONSource([]byte(doc))
	var total int
	var lastEnd int64
	line := int64(0)
	for {
		sp, err := src.NextSpan(7)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sp.FirstLine != line+1 {
			t.Fatalf("span first line %d, want %d", sp.FirstLine, line+1)
		}
		line += int64(strings.Count(string(sp.Data), "\n"))
		if len(sp.Data) > 0 && sp.Data[len(sp.Data)-1] != '\n' {
			line++ // final unterminated line
		}
		var batch dqruntime.ColumnBatch
		total += decodeNDJSONSpan(sp, &batch, func(int64, error) {})
		lastEnd += int64(len(sp.Data))
	}
	if lastEnd != int64(len(doc)) {
		t.Fatalf("spans covered %d bytes of %d", lastEnd, len(doc))
	}

	rows := NewNDJSONSource(strings.NewReader(doc))
	var n int
	for {
		_, err := rows.Next(make(dqruntime.Record))
		if err == io.EOF {
			break
		}
		if _, ok := err.(*RecordError); err != nil && !ok {
			t.Fatal(err)
		}
		if err == nil {
			n++
		}
	}
	if total != n {
		t.Fatalf("span decode produced %d rows, Next %d", total, n)
	}
}
