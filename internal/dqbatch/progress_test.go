package dqbatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	. "github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

func TestNDJSONByteOffsetTracksConsumedLines(t *testing.T) {
	input := `{"a":"1"}` + "\n" + `{"a":"2"}` + "\n"
	src := NewNDJSONSource(strings.NewReader(input))
	if got := src.ByteOffset(); got != 0 {
		t.Fatalf("initial offset = %d, want 0", got)
	}
	rec := dqruntime.Record{}
	if _, err := src.Next(rec); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(10); got != want {
		t.Fatalf("offset after first record = %d, want %d", got, want)
	}
	if _, err := src.Next(rec); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(len(input)); got != want {
		t.Fatalf("offset after second record = %d, want %d", got, want)
	}
	if _, err := src.Next(rec); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestNDJSONByteOffsetAdvancesPastMalformedLines(t *testing.T) {
	input := "not json\n" + `{"a":"1"}` + "\n"
	src := NewNDJSONSource(strings.NewReader(input))
	rec := dqruntime.Record{}
	if _, err := src.Next(rec); err == nil {
		t.Fatal("malformed line decoded")
	}
	// The malformed line was consumed; a checkpoint may move past it.
	if got, want := src.ByteOffset(), int64(9); got != want {
		t.Fatalf("offset after malformed record = %d, want %d", got, want)
	}
}

func TestNDJSONSourceAtContinuesNumbering(t *testing.T) {
	src := NewNDJSONSourceAt(strings.NewReader("bad\n"), 41, 1000)
	if _, err := src.Next(dqruntime.Record{}); err == nil {
		t.Fatal("malformed line decoded")
	} else if !strings.Contains(err.Error(), "record 42") {
		t.Fatalf("err = %v, want line 42", err)
	}
	if got, want := src.ByteOffset(), int64(1004); got != want {
		t.Fatalf("offset = %d, want %d", got, want)
	}
}

func TestCSVByteOffsetIsExact(t *testing.T) {
	input := "a,b\n1,2\n3,4\n"
	src := NewCSVSource(strings.NewReader(input))
	rec := dqruntime.Record{}
	if _, err := src.Next(rec); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(8); got != want {
		t.Fatalf("offset after first data row = %d, want %d", got, want)
	}
	if _, err := src.Next(rec); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(len(input)); got != want {
		t.Fatalf("offset after second data row = %d, want %d", got, want)
	}
}

// TestCountSourcePublishesProgress drives a real batch through a counted
// NDJSON source and checks the progress's final position matches the
// input.
func TestCountSourcePublishesProgress(t *testing.T) {
	v := buildValidator(t)
	var b strings.Builder
	for i := 0; i < 500; i++ {
		b.WriteString(`{"first_name":"G","last_name":"H","email_address":"g@h.io","overall_evaluation":2,"reviewer_confidence":3}` + "\n")
	}
	input := b.String()

	var p Progress
	src := CountSource(NewNDJSONSource(strings.NewReader(input)), &p)
	res, err := Run(context.Background(), v, src, Options{
		Workers: 4, ChunkSize: 64, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Records(); got != 500 || res.Records != 500 {
		t.Fatalf("progress records = %d, result %d, want 500", got, res.Records)
	}
	if got, want := p.Bytes(), int64(len(input)); got != want {
		t.Fatalf("progress bytes = %d, want %d", got, want)
	}
}

func TestRenderReportMatchesLegacyRendering(t *testing.T) {
	v := buildValidator(t)
	res, err := Run(context.Background(), v,
		NewColumnSource([]dqruntime.Record{goodRecord(), badRecord()}),
		Options{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := RenderReport(&got, res, "json"); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := string(data) + "\n"; got.String() != want {
		t.Fatalf("json rendering diverged:\n got: %s\nwant: %s", got.String(), want)
	}

	got.Reset()
	if err := RenderReport(&got, res, "text"); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	res.WriteText(&want)
	if got.String() != want.String() {
		t.Fatalf("text rendering diverged:\n got: %s\nwant: %s", got.String(), want.String())
	}

	if err := RenderReport(io.Discard, res, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
