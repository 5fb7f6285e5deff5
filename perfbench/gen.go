package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Planted-defect rates, in parts per 10,000 records. They are fixed so a
// seed only reshuffles where the defects fall, never how many kinds exist.
const (
	missingFirstPer10k = 300 // first_name omitted → Completeness fails
	outOfRangePer10k   = 400 // overall_evaluation outside [-3,3] → Precision fails
	escapedPer10k      = 200 // last_name written with JSON escapes → slow decoder
	duplicatePer10k    = 1250
	danglingPer10k     = 200 // share of distinct keys left out of the reference file
	malformedEvery     = 4000
)

// Truth is what the generator planted, counted exactly while writing.
// Every report the program produces over the file is checked against it.
type Truth struct {
	Lines          int64   `json:"lines"`
	Records        int64   `json:"records"`
	Malformed      int64   `json:"malformed"`
	MalformedLines []int64 `json:"malformed_lines"`
	MissingFirst   int64   `json:"missing_first_name"`
	OutOfRange     int64   `json:"out_of_range_evaluation"`
	FailedRecords  int64   `json:"failed_records"`
	Escaped        int64   `json:"escaped_lines"`
	Distinct       int64   `json:"distinct_keys"`
	Dangling       int64   `json:"dangling_records"`
	RefKeys        int64   `json:"ref_keys"`
}

// Input is one generated data set: the record file the program validates,
// the reference key file for the referential check, and the planted truth.
type Input struct {
	Records string `json:"records_path"`
	Ref     string `json:"ref_path"`
	Bytes   int64  `json:"bytes"`
	Truth   Truth  `json:"truth"`
}

// Properties summarises the input in the terms the metrics depend on.
func (in *Input) Properties() map[string]any {
	t := in.Truth
	share := func(n int64) float64 {
		if t.Records == 0 {
			return 0
		}
		return float64(n) / float64(t.Records)
	}
	return map[string]any{
		"records":             t.Records,
		"lines":               t.Lines,
		"bytes":               in.Bytes,
		"malformed":           t.Malformed,
		"escape_share":        float64(t.Escaped) / float64(t.Lines),
		"failure_share":       share(t.FailedRecords),
		"duplicate_share":     share(t.Records - t.Distinct),
		"dangling_share":      share(t.Dangling),
		"distinct_keys":       t.Distinct,
		"exact_cap":           dqruntime.DefaultMaxExact,
		"distinct_vs_cap":     float64(t.Distinct) / float64(dqruntime.DefaultMaxExact),
		"reference_keys":      t.RefKeys,
		"missing_first_name":  t.MissingFirst,
		"out_of_range_review": t.OutOfRange,
	}
}

// rng is splitmix64: tiny, fast and fixed forever, so a seed names the
// same bytes on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) per10k(rate int) bool { return r.intn(10000) < rate }

var (
	firstNames = []string{"Grace", "Alan", "Ada", "Edsger", "Barbara", "Donald", "Frances", "Tony", "Radia", "Niklaus", "Lynn", "Ken"}
	lastNames  = []string{"Hopper", "Turing", "Lovelace", "Dijkstra", "Liskov", "Knuth", "Allen", "Hoare", "Perlman", "Wirth", "Conway", "Thompson"}
	// escapedNames are JSON string bodies holding escapes; the fast span
	// decoder bails on every one of them to encoding/json.
	escapedNames = []string{`M\u00fcller`, `O\"Brien`, `Fran\u00e7ois`, `Ng\u0169yen`, `Back\\slash`}
)

// generate writes n record lines (malformed ones included) plus the
// reference file for seed into dir. The same seed and n always produce the
// same bytes.
func generate(dir string, seed int64, n int) (*Input, error) {
	r := &rng{s: uint64(seed)*0x2545f4914f6cdd1d + uint64(n)}
	in := &Input{
		Records: filepath.Join(dir, "records.ndjson"),
		Ref:     filepath.Join(dir, "ref.ndjson"),
	}
	t := &in.Truth

	recF, err := os.Create(in.Records)
	if err != nil {
		return nil, err
	}
	defer recF.Close()
	w := bufio.NewWriterSize(recF, 1<<20)

	// Keys are numbered in creation order; dangling[k] leaves key k out of
	// the reference file.
	var dangling []bool
	var line []byte
	for i := 0; i < n; i++ {
		t.Lines++
		line = line[:0]
		if (i+1)%malformedEvery == 0 {
			// A truncated object: malformed for both decoders.
			line = append(line, `{"first_name":"Ada","last_name":"Lovelace","email_address":`...)
			t.Malformed++
			t.MalformedLines = append(t.MalformedLines, t.Lines)
		} else {
			t.Records++
			var key int
			if len(dangling) > 0 && r.per10k(duplicatePer10k) {
				key = r.intn(len(dangling))
			} else {
				key = len(dangling)
				dangling = append(dangling, r.per10k(danglingPer10k))
			}
			if dangling[key] {
				t.Dangling++
			}
			missing := r.per10k(missingFirstPer10k)
			bad := r.per10k(outOfRangePer10k)
			escaped := r.per10k(escapedPer10k)
			eval := r.intn(7) - 3
			if bad {
				eval = 4 + r.intn(6)
				if r.intn(2) == 0 {
					eval = -eval
				}
			}
			line = append(line, '{')
			if missing {
				t.MissingFirst++
			} else {
				line = fmt.Appendf(line, `"first_name":%q,`, firstNames[r.intn(len(firstNames))])
			}
			if escaped {
				t.Escaped++
				line = fmt.Appendf(line, `"last_name":"%s",`, escapedNames[r.intn(len(escapedNames))])
			} else {
				line = fmt.Appendf(line, `"last_name":%q,`, lastNames[r.intn(len(lastNames))])
			}
			line = fmt.Appendf(line, `"email_address":"%s","overall_evaluation":%d,"reviewer_confidence":%d}`,
				emailOf(key), eval, r.intn(6))
			if bad {
				t.OutOfRange++
			}
			if missing || bad {
				t.FailedRecords++
			}
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	st, err := recF.Stat()
	if err != nil {
		return nil, err
	}
	in.Bytes = st.Size()
	t.Distinct = int64(len(dangling))

	refF, err := os.Create(in.Ref)
	if err != nil {
		return nil, err
	}
	defer refF.Close()
	w = bufio.NewWriterSize(refF, 1<<20)
	for k, skip := range dangling {
		if skip {
			continue
		}
		t.RefKeys++
		if _, err := fmt.Fprintf(w, "{\"email_address\":\"%s\",\"affiliation\":\"inst-%d\"}\n", emailOf(k), k%97); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := recF.Close(); err != nil {
		return nil, err
	}
	return in, refF.Close()
}

func emailOf(key int) string { return fmt.Sprintf("reviewer%07d@pc.example.org", key) }
