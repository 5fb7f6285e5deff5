// Golden parity for cross-record checks: the same input must produce
// byte-identical reports — JSON and text — from the engine at Workers:1
// and Workers:8 and from the sequential per-record reference, duplicates,
// dangling keys and freshness findings included. The fixtures keep per-record failures under
// the exemplar cap so the whole report (not just the cross-record block)
// compares byte-for-byte across worker counts.
package dqbatch

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// crossNDJSON builds records with duplicate ids, foreign keys that dangle
// past the reference set, a timestamp mix (fresh, stale, future) and a
// couple of malformed lines; exactly two records miss the required field.
func crossNDJSON() string {
	var b strings.Builder
	for i := 0; i < 900; i++ {
		switch {
		case i%173 == 0:
			b.WriteString("{bad json\n")
		case i == 150 || i == 600:
			fmt.Fprintf(&b, `{"id": "gap-%d", "customer_id": "c1", "ts": "2026-08-08T06:00:00Z"}`+"\n", i)
		default:
			id := fmt.Sprintf("id-%d", i%800) // i and i+800 collide below 100
			cust := fmt.Sprintf("c%d", i%45)  // reference set holds c0..c39
			var ts string
			switch i % 7 {
			case 0:
				ts = "2025-01-01T00:00:00Z" // stale
			case 1:
				ts = "2026-09-01T00:00:00Z" // future-dated
			default:
				ts = fmt.Sprintf("2026-08-0%dT10:00:00Z", i%7)
			}
			fmt.Fprintf(&b, `{"a": "x%d", "id": %q, "customer_id": %q, "ts": %q}`+"\n", i, id, cust, ts)
		}
	}
	return b.String()
}

// refNDJSON is the reference dataset for the two-pass referential check;
// the malformed line must be skipped by BuildKeySet.
func refNDJSON() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `{"id": "c%d"}`+"\n", i)
	}
	b.WriteString("{bad json\n")
	return b.String()
}

// crossChecks assembles the three stateful checks the tentpole ships, with
// the referential reference set built by the real first pass.
func crossChecks(t *testing.T, maxExact int) []dqruntime.StatefulCheck {
	t.Helper()
	keys, err := BuildKeySet(context.Background(),
		NewNDJSONSource(strings.NewReader(refNDJSON())), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 40 {
		t.Fatalf("reference key set has %d keys, want 40", len(keys))
	}
	asOf := func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	return []dqruntime.StatefulCheck{
		dqruntime.UniquenessCheck{Fields: []string{"id"}, MaxExact: maxExact, BloomBits: 1 << 14},
		dqruntime.ReferentialCheck{Fields: []string{"customer_id"}, Ref: keys, RefName: "customers"},
		dqruntime.TimelinessCheck{Field: "ts",
			Windows: []time.Duration{24 * time.Hour, 7 * 24 * time.Hour}, Now: asOf},
	}
}

// runCross runs the engine at Workers 1 and 8 and asserts both reports
// equal the reference's, returning the reference result.
func runCross(t *testing.T, doc string, checks []dqruntime.StatefulCheck) *Result {
	t.Helper()
	v := dqruntime.NewValidator("cross", dqruntime.CompletenessCheck{Required: []string{"a"}})
	base, err := referenceRun(v, NewNDJSONSource(strings.NewReader(doc)), Options{CrossRecord: checks})
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 0
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(doc)), Options{
			Workers: workers, ChunkSize: 32, Registry: obs.NewRegistry(), CrossRecord: checks,
		})
		if err != nil {
			t.Fatal(err)
		}
		normalize(res)
		res.Workers = 0
		assertIdenticalReports(t, base, res)
	}
	return base
}

// TestCrossRecordGoldenParity is the acceptance criterion: uniqueness +
// two-pass referential + timeliness report byte-identically across
// Workers:1, Workers:8 and the per-record reference.
func TestCrossRecordGoldenParity(t *testing.T) {
	base := runCross(t, crossNDJSON(), crossChecks(t, 0))
	if len(base.CrossRecords) != 3 {
		t.Fatalf("cross findings = %d, want 3", len(base.CrossRecords))
	}
	for _, f := range base.CrossRecords {
		if f.Records == 0 || f.Violations == 0 || f.Passed {
			t.Fatalf("degenerate fixture for %s: %+v", f.Check, f)
		}
		if f.Approximate {
			t.Fatalf("%s went approximate with default MaxExact: %+v", f.Check, f)
		}
		if len(f.Details) == 0 {
			t.Fatalf("%s has no details: %+v", f.Check, f)
		}
	}
}

// TestCrossRecordBloomParity repeats the byte identity with the
// uniqueness check forced into approximate mode.
func TestCrossRecordBloomParity(t *testing.T) {
	base := runCross(t, crossNDJSON(), crossChecks(t, 16))
	if !base.CrossRecords[0].Approximate {
		t.Fatalf("uniqueness stayed exact at MaxExact=16: %+v", base.CrossRecords[0])
	}
}

// TestCrossFindingsAttributeQuality checks each finding lands in the
// windowed quality series as one dataset-level measurement of its
// characteristic.
func TestCrossFindingsAttributeQuality(t *testing.T) {
	quality := obs.NewSeriesSet(time.Minute, 4)
	v := dqruntime.NewValidator("cross", dqruntime.CompletenessCheck{Required: []string{"a"}})
	res, err := Run(context.Background(), v,
		NewNDJSONSource(strings.NewReader(crossNDJSON())), Options{
			Workers: 4, Registry: obs.NewRegistry(), Quality: quality, Context: "nightly",
			CrossRecord: crossChecks(t, 0),
		})
	if err != nil {
		t.Fatal(err)
	}
	rep := quality.Report("dq_score", 0)
	byChar := map[string]obs.SeriesSnapshot{}
	for _, s := range rep.Series {
		byChar[s.Labels["characteristic"]] = s
	}
	// Uniqueness + referential merge into consistency (2 measurements),
	// timeliness into currentness (1); neither characteristic has
	// per-record checks in this validator, so the counts are exactly the
	// finding counts.
	cons, ok := byChar["Consistency"]
	if !ok || cons.Current == nil || cons.Current.Count != 2 || cons.Current.Failures != 2 {
		t.Fatalf("consistency series = %+v", cons)
	}
	curr, ok := byChar["Currentness"]
	if !ok || curr.Current == nil || curr.Current.Count != 1 {
		t.Fatalf("currentness series = %+v", curr)
	}
	if want := res.CrossRecords[2].Score; curr.Current.Min != want || curr.Current.Max != want {
		t.Fatalf("currentness min/max = %g/%g, want finding score %g",
			curr.Current.Min, curr.Current.Max, want)
	}
}

// TestCSVDecodeErrorFileLines pins the line-number fix: quoted multi-line
// fields advance file lines without advancing record counts, and decode
// errors must point at true file lines in the engine and the reference.
func TestCSVDecodeErrorFileLines(t *testing.T) {
	doc := "a,b\n" + // line 1: header
		"\"x\ny\",2\n" + // lines 2-3: one record with an embedded newline
		"only-one-field\n" + // line 4: field-count mismatch
		"p,q\n" + // line 5: ok
		"1,2,3\n" + // line 6: field-count mismatch
		"\"z\nw\",9\n" + // lines 7-8: ok
		"ab\"cd,x\n" // line 9: bare-quote parse error
	v := dqruntime.NewValidator("csv", dqruntime.CompletenessCheck{Required: []string{"a"}})
	ref, err := referenceRun(v, NewCSVSource(strings.NewReader(doc)), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), v, NewCSVSource(strings.NewReader(doc)),
		Options{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"reference": ref, "engine": res} {
		if r.Records != 3 || r.Malformed != 3 {
			t.Fatalf("%s: records=%d malformed=%d, want 3/3", name, r.Records, r.Malformed)
		}
		var lines []int64
		for _, de := range r.DecodeErrors {
			lines = append(lines, de.Line)
		}
		if len(lines) != 3 || lines[0] != 4 || lines[1] != 6 || lines[2] != 9 {
			t.Fatalf("%s: decode error lines = %v, want [4 6 9]", name, lines)
		}
	}
}
