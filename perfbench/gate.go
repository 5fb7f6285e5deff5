package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// report is the part of a JSON batch report the gate reads.
type report struct {
	Records      int64 `json:"records"`
	Passed       int64 `json:"passed"`
	Failed       int64 `json:"failed"`
	Malformed    int64 `json:"malformed"`
	DecodeErrors []struct {
		Line int64 `json:"line"`
	} `json:"decode_errors"`
	Characteristics []struct {
		Characteristic string  `json:"characteristic"`
		Checks         int64   `json:"checks"`
		Passed         int64   `json:"passed"`
		MinScore       float64 `json:"min_score"`
		MaxScore       float64 `json:"max_score"`
		MeanScore      float64 `json:"mean_score"`
	} `json:"characteristics"`
	CrossRecords []struct {
		Check       string `json:"check"`
		Records     int64  `json:"records"`
		Violations  int64  `json:"violations"`
		Approximate bool   `json:"approximate"`
	} `json:"cross_records"`
}

// decodeErrorCap is the CLI's and the job server's default -decode-errors.
const decodeErrorCap = 10

// bloomTolerance bounds the uniqueness estimate's error once the check has
// spilled to its Bloom filter: the estimate is not exact, so the gate only
// rejects one that is off by more than this share of the true duplicate
// count.
const bloomTolerance = 0.25

// completenessFields is how many fields the model's completeness check
// requires; a record missing first_name alone scores 1 - 1/5.
const completenessFields = 5

// scoreTolerance is how far a mean_score may lie from the planted truth, as
// a share of it. A mean is a float sum divided by a count, so it is exact
// only to rounding, about 1e-11 over a million records; one record scored
// wrongly moves it by more than 1e-7.
const scoreTolerance = 1e-9

// gate checks a JSON report against the planted truth wherever the report
// is exact: record, pass/fail and malformed counts, the first decode-error
// lines, per-characteristic checks, passes and scores, and the
// cross-record findings the run asked for (cross is false when it ran
// without -unique/-ref).
func gate(raw []byte, t *Truth, cross bool) error {
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("report is not JSON: %w", err)
	}
	var errs []string
	check := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("%s = %d, planted %d", what, got, want))
		}
	}
	check("records", r.Records, t.Records)
	check("passed", r.Passed, t.Records-t.FailedRecords)
	check("failed", r.Failed, t.FailedRecords)
	check("malformed", r.Malformed, t.Malformed)
	want := t.MalformedLines
	if len(want) > decodeErrorCap {
		want = want[:decodeErrorCap]
	}
	check("decode errors listed", int64(len(r.DecodeErrors)), int64(len(want)))
	for i := 0; i < len(want) && i < len(r.DecodeErrors); i++ {
		check(fmt.Sprintf("decode error %d line", i+1), r.DecodeErrors[i].Line, want[i])
	}

	// Completeness runs one check per record, Precision one per ranged
	// field (overall_evaluation, reviewer_confidence) scoring 1 or 0.
	type charTruth struct {
		checks, passed int64
		min, mean      float64
	}
	expect := map[string]charTruth{}
	if t.Records > 0 {
		n := float64(t.Records)
		c := charTruth{checks: t.Records, passed: t.Records - t.MissingFirst, min: 1,
			mean: 1 - float64(t.MissingFirst)/completenessFields/n}
		if t.MissingFirst > 0 {
			c.min = 1 - 1.0/completenessFields
		}
		expect["Completeness"] = c
		p := charTruth{checks: 2 * t.Records, passed: 2*t.Records - t.OutOfRange, min: 1,
			mean: 1 - float64(t.OutOfRange)/(2*n)}
		if t.OutOfRange > 0 {
			p.min = 0
		}
		expect["Precision"] = p
	}
	check("characteristics", int64(len(r.Characteristics)), int64(len(expect)))
	for _, c := range r.Characteristics {
		e, ok := expect[c.Characteristic]
		if !ok {
			errs = append(errs, fmt.Sprintf("unexpected characteristic %s", c.Characteristic))
			continue
		}
		check(c.Characteristic+" checks", c.Checks, e.checks)
		check(c.Characteristic+" passed", c.Passed, e.passed)
		if c.MinScore != e.min || c.MaxScore != 1 {
			errs = append(errs, fmt.Sprintf("%s scores in [%v, %v], planted [%v, 1]", c.Characteristic, c.MinScore, c.MaxScore, e.min))
		}
		if !closeTo(c.MeanScore, e.mean) {
			errs = append(errs, fmt.Sprintf("%s mean_score = %v, planted %v", c.Characteristic, c.MeanScore, e.mean))
		}
	}

	wantCross := 0
	if cross {
		wantCross = 2
	}
	check("cross-record findings", int64(len(r.CrossRecords)), int64(wantCross))
	for _, f := range r.CrossRecords {
		if !cross {
			break
		}
		check(f.Check+" records", f.Records, t.Records)
		switch f.Check {
		case "check_referential":
			check("referential violations", f.Violations, t.Dangling)
		case "check_uniqueness":
			dups := t.Records - t.Distinct
			spilled := t.Distinct > dqruntime.DefaultMaxExact
			if f.Approximate != spilled {
				errs = append(errs, fmt.Sprintf("uniqueness approximate = %v with %d distinct keys (exact cap %d)",
					f.Approximate, t.Distinct, dqruntime.DefaultMaxExact))
			} else if !spilled {
				check("uniqueness violations", f.Violations, dups)
			} else if math.Abs(float64(f.Violations-dups)) > bloomTolerance*float64(dups) {
				errs = append(errs, fmt.Sprintf("uniqueness estimate %d, planted %d duplicates", f.Violations, dups))
			}
		default:
			errs = append(errs, "unexpected cross-record check "+f.Check)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("report fails the gate: %v", errs)
	}
	return nil
}

// timingKeys are the report fields that measure the run rather than the
// data; they differ between any two runs and are stripped before reports
// are compared.
var timingKeys = [][]byte{
	[]byte(`  "seconds": `),
	[]byte(`  "records_per_sec": `),
	[]byte(`  "latency_p50_seconds": `),
	[]byte(`  "latency_p99_seconds": `),
}

// stripTiming drops the top-level timing lines of an indented JSON report,
// leaving bytes that must be identical across runs and paths.
func stripTiming(raw []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		timing := false
		for _, k := range timingKeys {
			if bytes.HasPrefix(line, k) {
				timing = true
				break
			}
		}
		if !timing {
			out = append(out, line...)
		}
	}
	return out
}

// meanScoreKey starts the one report line whose value may differ between
// two correct reports of the same data; see sameReport.
var meanScoreKey = []byte(`"mean_score": `)

// sameReport fails when two reports differ in anything but timing, naming
// the first line that differs. It returns how many mean_score lines
// differed only in their last digits, which it lets pass: the engine sums
// each worker's scores and adds the sums in an order that depends on
// scheduling, and float addition is not associative, so two correct runs
// of one file can round a mean differently. The gate checks every
// mean_score against the planted truth.
func sameReport(got, ref []byte) (drift int, err error) {
	g, r := bytes.Split(stripTiming(got), []byte("\n")), bytes.Split(stripTiming(ref), []byte("\n"))
	for i := 0; i < len(g) || i < len(r); i++ {
		var gl, rl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(r) {
			rl = r[i]
		}
		if bytes.Equal(gl, rl) {
			continue
		}
		if roundingOnly(gl, rl) {
			drift++
			continue
		}
		return drift, fmt.Errorf("report differs from the reference beyond timing fields at line %d: %q, reference %q",
			i+1, bytes.TrimSpace(gl), bytes.TrimSpace(rl))
	}
	return drift, nil
}

// roundingOnly reports whether two report lines are the same mean_score
// entry with values equal to within rounding.
func roundingOnly(a, b []byte) bool {
	ka, va, oka := bytes.Cut(a, meanScoreKey)
	kb, vb, okb := bytes.Cut(b, meanScoreKey)
	if !oka || !okb || !bytes.Equal(ka, kb) {
		return false
	}
	x, errA := strconv.ParseFloat(string(bytes.TrimSuffix(va, []byte(","))), 64)
	y, errB := strconv.ParseFloat(string(bytes.TrimSuffix(vb, []byte(","))), 64)
	return errA == nil && errB == nil && closeTo(x, y)
}

// closeTo reports whether x lies within scoreTolerance of want, relative
// to want.
func closeTo(x, want float64) bool {
	return math.Abs(x-want) <= scoreTolerance*math.Abs(want)
}
