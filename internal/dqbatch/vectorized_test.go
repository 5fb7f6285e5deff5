// Golden parity for the batch engine: running the same input through Run
// and through the sequential per-record reference must produce
// byte-identical reports — same counts, scores (mean_score included),
// exemplar order and detail text, same decode errors with the same line
// numbers — for NDJSON, CSV and column sources, malformed lines included,
// at Workers 1 and 8. Timing fields are zeroed before comparison;
// everything else must match exactly.
package dqbatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

func parityValidator(t testing.TB) *dqruntime.Validator {
	t.Helper()
	oclChk, err := dqruntime.NewOCLCheck(iso25012.Consistency,
		"n.oclIsUndefined() or opt.oclIsUndefined() or n <= opt")
	if err != nil {
		t.Fatal(err)
	}
	fixedNow := func() time.Time {
		return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	}
	return dqruntime.NewValidator("parity",
		dqruntime.CompletenessCheck{Required: []string{"a", "b"}},
		dqruntime.PrecisionCheck{Field: "n", Lower: -3, Upper: 3},
		dqruntime.AccuracyCheck{Field: "email", Pattern: dqruntime.EmailPattern},
		dqruntime.CurrentnessCheck{Field: "ts", MaxAge: 365 * 24 * time.Hour, Now: fixedNow},
		// No vectorized path: exercises the RowView fallback inside the
		// otherwise-columnar pipeline.
		dqruntime.ConsistencyCheck{Rule: "a differs from b", Predicate: func(r dqruntime.Record) bool {
			return r["a"] != r["b"] || r["a"] == ""
		}},
		oclChk,
	)
}

// parityNDJSON builds an NDJSON document with passing rows, failing rows,
// blank lines and malformed lines (bad JSON, null values, nested values).
func parityNDJSON() string {
	var b strings.Builder
	for i := 0; i < 700; i++ {
		switch {
		case i%97 == 0:
			b.WriteString("{bad json\n") // undecodable line
		case i%61 == 0:
			b.WriteString(`{"a": "x", "n": null}` + "\n") // null field value
		case i%53 == 0:
			b.WriteString(`{"a": {"nested": 1}}` + "\n") // non-scalar field
		case i%31 == 0:
			b.WriteString("\n") // blank line, skipped silently
		default:
			fmt.Fprintf(&b, `{"a": "v%d", "b": "w%d", "n": "%d", "opt": "%d", "email": "u%d@example.org", "ts": "2026-0%d-01T00:00:00Z"}`+"\n",
				i, i%7, i%9-4, i%6, i, i%9+1)
		}
	}
	return b.String()
}

// parityCSV builds a CSV document with a header, valid rows and rows with
// the wrong field count.
func parityCSV() string {
	var b strings.Builder
	b.WriteString("a,b,n,opt,email,ts\n")
	for i := 0; i < 500; i++ {
		switch {
		case i%89 == 0:
			fmt.Fprintf(&b, "only,three,fields\n") // field-count mismatch
		default:
			fmt.Fprintf(&b, "v%d,w%d,%d,%d,u%d@example.org,2026-0%d-01T00:00:00Z\n",
				i, i%7, i%9-4, i%6, i, i%9+1)
		}
	}
	return b.String()
}

// normalize zeroes the timing-dependent fields so reports compare on
// content alone.
func normalize(r *Result) {
	r.Seconds = 0
	r.RecordsPerSec = 0
	r.LatencyP50 = 0
	r.LatencyP99 = 0
	r.Duration = 0
}

// runParity runs the engine over mkSource and the reference over mkRows —
// the same input — at Workers 1 and 8 and asserts byte-identical reports.
// It returns the reference result.
func runParity(t *testing.T, opts Options, mkSource func() Source, mkRows func() rowSource) *Result {
	t.Helper()
	v := parityValidator(t)
	opts.Registry = obs.NewRegistry()
	var ref *Result
	for _, workers := range []int{1, 8} {
		opts.Workers = workers
		want, err := referenceRun(v, mkRows(), opts)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := Run(context.Background(), v, mkSource(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		normalize(got)
		assertIdenticalReports(t, want, got)
		ref = want
	}
	return ref
}

func assertIdenticalReports(t *testing.T, want, got *Result) {
	t.Helper()
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("JSON reports diverged\nwant:\n%s\ngot:\n%s", wantJSON, gotJSON)
	}
	var wantText, gotText bytes.Buffer
	want.WriteText(&wantText)
	got.WriteText(&gotText)
	if !bytes.Equal(wantText.Bytes(), gotText.Bytes()) {
		t.Fatalf("text reports diverged\nwant:\n%s\ngot:\n%s", wantText.String(), gotText.String())
	}
}

func TestRunParityNDJSON(t *testing.T) {
	doc := parityNDJSON()
	ref := runParity(t, Options{ChunkSize: 64},
		func() Source { return NewNDJSONSource(strings.NewReader(doc)) },
		func() rowSource { return NewNDJSONSource(strings.NewReader(doc)) })
	if ref.Records == 0 || ref.Failed == 0 || ref.Malformed == 0 {
		t.Fatalf("degenerate fixture: %+v", ref)
	}
	if len(ref.DecodeErrors) == 0 {
		t.Fatal("fixture produced no decode errors")
	}
}

func TestRunParityCSV(t *testing.T) {
	doc := parityCSV()
	ref := runParity(t, Options{ChunkSize: 64},
		func() Source { return NewCSVSource(strings.NewReader(doc)) },
		func() rowSource { return NewCSVSource(strings.NewReader(doc)) })
	if ref.Records == 0 || ref.Malformed == 0 {
		t.Fatalf("degenerate fixture: %+v", ref)
	}
}

func TestRunParityColumnSource(t *testing.T) {
	recs := make([]dqruntime.Record, 0, 200)
	for i := 0; i < 200; i++ {
		recs = append(recs, dqruntime.Record{
			"a": fmt.Sprintf("v%d", i), "b": fmt.Sprintf("w%d", i%5),
			"n": fmt.Sprintf("%d", i%9-4), "opt": fmt.Sprintf("%d", i%6),
			"email": "u@example.org", "ts": "2026-01-01T00:00:00Z",
		})
	}
	runParity(t, Options{ChunkSize: 64},
		func() Source { return NewColumnSource(recs) },
		func() rowSource { return &sliceRows{recs: recs} })
}

// TestRunParityCaseStudy runs the case-study enforcer over review records
// shaped like a dqserve job's — precision failures, duplicate e-mail
// addresses under the uniqueness check, malformed lines — against the
// reference, the same shape the job API and the CLI are pinned to each
// other on.
func TestRunParityCaseStudy(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		if i%97 == 96 {
			b.WriteString("not json\n")
			continue
		}
		email := fmt.Sprintf("r%d@conf.org", i)
		if i%11 == 10 {
			email = "dup@conf.org"
		}
		fmt.Fprintf(&b,
			`{"first_name":"R%d","last_name":"Vee","email_address":"%s","overall_evaluation":%d,"reviewer_confidence":%d}`+"\n",
			i, email, i%9-4, i%5+1)
	}
	doc := b.String()
	v := benchValidator(t)
	opts := Options{Registry: obs.NewRegistry(),
		CrossRecord: []dqruntime.StatefulCheck{dqruntime.UniquenessCheck{Fields: []string{"email_address"}}}}
	for _, workers := range []int{1, 8} {
		opts.Workers = workers
		want, err := referenceRun(v, NewNDJSONSource(strings.NewReader(doc)), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), v, NewMmapNDJSONSource([]byte(doc)), opts)
		if err != nil {
			t.Fatal(err)
		}
		normalize(got)
		assertIdenticalReports(t, want, got)
		if want.Failed == 0 || want.Malformed == 0 || want.CrossRecords[0].Violations == 0 {
			t.Fatalf("degenerate fixture: %+v", want)
		}
	}
}

// TestDecodeErrorLines pins the decode-error capture: line numbers point
// at the malformed input lines, the cap applies, and Malformed counts
// every skipped record regardless.
func TestDecodeErrorLines(t *testing.T) {
	doc := "{\"a\": \"1\"}\n{bad\n\n{\"a\": null}\n{worse\n"
	res, err := Run(context.Background(), parityValidator(t),
		NewNDJSONSource(strings.NewReader(doc)),
		Options{Workers: 1, MaxDecodeErrors: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 || res.Malformed != 3 {
		t.Fatalf("records=%d malformed=%d, want 1/3", res.Records, res.Malformed)
	}
	if len(res.DecodeErrors) != 2 {
		t.Fatalf("%d decode errors retained, want 2 (cap)", len(res.DecodeErrors))
	}
	if res.DecodeErrors[0].Line != 2 || res.DecodeErrors[1].Line != 4 {
		t.Fatalf("decode error lines %d,%d, want 2,4", res.DecodeErrors[0].Line, res.DecodeErrors[1].Line)
	}
	if res.DecodeErrors[0].Error == "" {
		t.Fatal("empty decode error text")
	}
	// Negative cap retains nothing but still counts.
	res, err = Run(context.Background(), parityValidator(t),
		NewNDJSONSource(strings.NewReader(doc)),
		Options{Workers: 1, MaxDecodeErrors: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Malformed != 3 || len(res.DecodeErrors) != 0 {
		t.Fatalf("negative cap: malformed=%d retained=%d", res.Malformed, len(res.DecodeErrors))
	}
}

// TestRunCancelledKeepsPartialReport checks a cancelled run still returns
// the partial result (the SIGINT path the CLI prints), with the context
// error alongside.
func TestRunCancelledKeepsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, parityValidator(t),
		NewNDJSONSource(strings.NewReader(parityNDJSON())),
		Options{Workers: 2, Registry: obs.NewRegistry()})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
}

// TestRunVectorizedWorkers runs the engine with several workers and a
// small chunk size, so chunk assignment differs from run to run: every
// report — counters, exemplars and the exact mean_score bits — must still
// equal the sequential reference's, run after run.
func TestRunVectorizedWorkers(t *testing.T) {
	doc := parityNDJSON()
	v := parityValidator(t)
	for _, workers := range []int{1, 2, 8} {
		opts := Options{Workers: workers, ChunkSize: 16, Registry: obs.NewRegistry()}
		want, err := referenceRun(v, NewNDJSONSource(strings.NewReader(doc)), opts)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			got, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(doc)), opts)
			if err != nil {
				t.Fatal(err)
			}
			normalize(got)
			assertIdenticalReports(t, want, got)
		}
	}
}
