package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/dqserve"
)

func digest(t *testing.T, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func TestGenerateIsByteDeterministicPerSeed(t *testing.T) {
	a, err := generate(t.TempDir(), 7, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(t.TempDir(), 7, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(t.TempDir(), 8, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, a.Records) != digest(t, b.Records) || digest(t, a.Ref) != digest(t, b.Ref) {
		t.Fatal("same seed produced different bytes")
	}
	if digest(t, a.Records) == digest(t, c.Records) {
		t.Fatal("different seeds produced the same records")
	}
	tr := a.Truth
	if tr.Records+tr.Malformed != tr.Lines || int64(len(tr.MalformedLines)) != tr.Malformed {
		t.Fatalf("line accounting: %+v", tr)
	}
	for name, n := range map[string]int64{
		"malformed": tr.Malformed, "missing first_name": tr.MissingFirst, "out of range": tr.OutOfRange,
		"escaped": tr.Escaped, "duplicates": tr.Records - tr.Distinct, "dangling": tr.Dangling,
	} {
		if n == 0 {
			t.Errorf("no %s lines planted", name)
		}
	}
	if tr.RefKeys >= tr.Distinct {
		t.Errorf("every key is in the reference file: %d of %d", tr.RefKeys, tr.Distinct)
	}
}

// batchReport runs `dqwebre batch` in-process over in and returns its JSON
// report.
func batchReport(t *testing.T, in *Input, extra ...string) []byte {
	t.Helper()
	var model bytes.Buffer
	if err := cli.Run([]string{"demo"}, &model); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "easychair.xml")
	if err := os.WriteFile(modelPath, model.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"batch", "-model", modelPath, "-in", in.Records, "-report", "json"}, extra...)
	var out bytes.Buffer
	if err := cli.Run(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestGateAcceptsTheProgramsReportAndRejectsTampering(t *testing.T) {
	in, err := generate(t.TempDir(), 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := batchReport(t, in)
	if err := gate(rep, &in.Truth, false); err != nil {
		t.Fatalf("untampered report: %v", err)
	}
	if err := gate(rep, &in.Truth, true); err == nil {
		t.Error("gate accepted a report without the cross-record findings it asked for")
	}
	for _, tamper := range []struct{ from, to string }{
		{`"malformed": 5,`, `"malformed": 4,`},
		{`"records": 19995,`, `"records": 19994,`},
		{`"line": 4000,`, `"line": 4001,`},
		{`"checks": 19995,`, `"checks": 19996,`},
	} {
		if !bytes.Contains(rep, []byte(tamper.from)) {
			t.Fatalf("report lacks %s", tamper.from)
		}
		bad := bytes.Replace(rep, []byte(tamper.from), []byte(tamper.to), 1)
		if err := gate(bad, &in.Truth, false); err == nil {
			t.Errorf("gate accepted a report with %s", tamper.to)
		}
	}

	// Timing fields may differ, and a mean_score by rounding; any other
	// byte may not.
	retimed := bytes.Replace(rep, []byte(`"seconds": `), []byte(`"seconds": 12`), 1)
	if drift, err := sameReport(retimed, rep); err != nil || drift != 0 {
		t.Errorf("timing-only difference: drift %d, %v", drift, err)
	}
	var parsed report
	if err := json.Unmarshal(rep, &parsed); err != nil {
		t.Fatal(err)
	}
	mean := parsed.Characteristics[0].MeanScore
	line := func(v float64) []byte { return []byte(`"mean_score": ` + strconv.FormatFloat(v, 'g', -1, 64) + `,`) }
	if !bytes.Contains(rep, line(mean)) {
		t.Fatalf("report lacks %s", line(mean))
	}
	rounded := bytes.Replace(rep, line(mean), line(math.Nextafter(mean, 2)), 1)
	if drift, err := sameReport(rounded, rep); err != nil || drift != 1 {
		t.Errorf("a mean_score one ulp away: drift %d, %v", drift, err)
	}
	if err := gate(rounded, &in.Truth, false); err != nil {
		t.Errorf("gate rejected a mean_score one ulp away: %v", err)
	}
	// One Completeness record scored wrongly: 0.2 out of 19,995 records.
	wrong := bytes.Replace(rep, line(mean), line(mean-0.2/19995), 1)
	if _, err := sameReport(wrong, rep); err == nil {
		t.Error("a mean_score off by one record's score passed the parity check")
	}
	if err := gate(wrong, &in.Truth, false); err == nil {
		t.Error("gate accepted a mean_score off by one record's score")
	}
}

func TestGateChecksCrossRecordFindings(t *testing.T) {
	in, err := generate(t.TempDir(), 4, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := batchReport(t, in, "-unique", "email_address", "-ref", in.Ref, "-ref-key", "email_address")
	if err := gate(rep, &in.Truth, true); err != nil {
		t.Fatalf("untampered report: %v", err)
	}
	wrong := in.Truth
	wrong.Dangling++
	if err := gate(rep, &wrong, true); err == nil {
		t.Error("gate accepted a wrong referential violation count")
	}
}

func TestServeShedAndFailedJobsCountAsFailed(t *testing.T) {
	release := make(chan struct{})
	cfg := dqserve.Config{
		StagingDir:   t.TempDir(),
		DefaultModel: "model.xml",
		MaxJobs:      1,
		LoadEnforcer: func(string) (*dqruntime.Enforcer, error) {
			<-release
			return nil, errors.New("model unavailable")
		},
	}
	s, err := startServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	body := []byte(`{"first_name":"Ada"}` + "\n")
	truth := &Truth{Records: 1}
	tl := &tally{}

	// Job A takes the only admission slot; its worker blocks loading the
	// model, so the slot stays taken.
	resp, err := s.ts.Client().Post(s.ts.URL+"/v1/jobs", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var a struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&a)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 202 {
		t.Fatalf("job A answered %s (%v)", resp.Status, err)
	}
	if _, ok := s.gatedJob(ctx, body, truth, false, tl); ok {
		t.Error("a shed submission counted as a success")
	}
	close(release)
	<-s.srv.Job(a.ID).Done()
	// With the model load failing, the next job ends "failed".
	if _, ok := s.gatedJob(ctx, body, truth, false, tl); ok {
		t.Error("a failed job counted as a success")
	}
	if tl.attempted != 2 || tl.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 2 and 2 (%v)", tl.attempted, tl.failed, tl.errs)
	}
	causes := strings.Join(tl.errs, "\n")
	if !strings.Contains(causes, "503") || !strings.Contains(causes, "ended failed") {
		t.Errorf("failure causes: %v", tl.errs)
	}
}
