// Behavioural tests for the dqserve job API. They live in the external
// test package so they can drive the server through internal/cli's model
// loader (the same wiring `dqwebre serve` uses) and compare its reports
// against `dqwebre batch` — the golden-parity contract.
package dqserve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"context"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqserve"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/xmi"
)

// writeDemoModel marshals the case-study requirements model to dir.
func writeDemoModel(t *testing.T, dir string) string {
	t.Helper()
	e, err := easychair.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	data, err := xmi.Marshal(e.Model.Model)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "easychair.xml")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// makeNDJSON builds n review records: evaluations span -4..4 so some fail
// the [-3,3] precision check, every 11th repeats an email address (for
// the uniqueness check), and every 97th line is malformed.
func makeNDJSON(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
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
	return b.String()
}

// testConfig returns a server config against a fresh staging dir and the
// demo model, with fast checkpoints for the restart tests.
func testConfig(t *testing.T) dqserve.Config {
	t.Helper()
	dir := t.TempDir()
	model := writeDemoModel(t, dir)
	return dqserve.Config{
		StagingDir:      filepath.Join(dir, "staging"),
		LoadEnforcer:    cli.LoadEnforcer,
		DefaultModel:    model,
		ModelDir:        filepath.Dir(model),
		CheckpointEvery: 10 * time.Millisecond,
		Registry:        obs.NewRegistry(),
		Quality:         obs.NewSeriesSet(time.Minute, 4),
	}
}

// startServer builds, starts and exposes a server over httptest.
func startServer(t *testing.T, cfg dqserve.Config) (*dqserve.Server, *httptest.Server) {
	t.Helper()
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs body and returns the response and decoded id (when 202).
func submit(t *testing.T, ts *httptest.Server, query, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, ""
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		t.Fatalf("submit response not a job: %s", data)
	}
	return resp.StatusCode, acc.ID
}

// get fetches a path and returns status + body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data
}

// waitDone blocks until the job terminates.
func waitDone(t *testing.T, s *dqserve.Server, id string) *dqserve.Job {
	t.Helper()
	j := s.Job(id)
	if j == nil {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not terminate", id)
	}
	return j
}

// normalizeReport parses a report and re-renders it with timing fields
// zeroed, so two runs compare on content alone.
func normalizeReport(t *testing.T, data []byte) string {
	t.Helper()
	var res dqbatch.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("report is not a Result: %v\n%s", err, data)
	}
	res.Seconds, res.RecordsPerSec, res.LatencyP50, res.LatencyP99 = 0, 0, 0, 0
	var buf bytes.Buffer
	if err := dqbatch.RenderReport(&buf, &res, "json"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runBatchCLI runs `dqwebre batch -in in` with the given flags and
// returns its report. For "-" the records file is served as stdin.
func runBatchCLI(t *testing.T, in, recFile string, flags ...string) []byte {
	t.Helper()
	if in == "-" {
		f, err := os.Open(recFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		stdin := os.Stdin
		os.Stdin = f
		defer func() { os.Stdin = stdin }()
	}
	var out bytes.Buffer
	if err := cli.Run(append([]string{"batch", "-in", in}, flags...), &out); err != nil {
		t.Fatalf("cli batch -in %s: %v", in, err)
	}
	return out.Bytes()
}

// TestServerCLIReportParity is the golden-parity contract: the same
// records validated through the job API, through `dqwebre batch -in file`
// (the memory-mapped source) and through `dqwebre batch -in -` (stdin's
// reader-backed source) yield byte-identical JSON reports (after zeroing
// timing), across worker counts, cross-record findings and decode errors
// included. The dqbatch golden parity suites pin the engine behind all
// three to the sequential per-record reference on the same record shape.
func TestServerCLIReportParity(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(2000)
	recFile := filepath.Join(t.TempDir(), "records.ndjson")
	if err := os.WriteFile(recFile, []byte(records), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		code, id := submit(t, ts, fmt.Sprintf("?workers=%d&unique=email_address", workers), records)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d", name, code)
		}
		j := waitDone(t, s, id)
		if j.State() != dqserve.StateDone {
			t.Fatalf("%s: state = %s", name, j.State())
		}
		status, serverReport := get(t, ts, "/v1/jobs/"+id+"/report")
		if status != http.StatusOK {
			t.Fatalf("%s: report = %d: %s", name, status, serverReport)
		}
		serverNorm := normalizeReport(t, serverReport)

		for _, in := range []string{recFile, "-"} {
			cliOut := runBatchCLI(t, in, recFile, "-model", cfg.DefaultModel,
				"-workers", fmt.Sprint(workers), "-unique", "email_address", "-report", "json")
			if cliNorm := normalizeReport(t, cliOut); serverNorm != cliNorm {
				t.Fatalf("%s -in %s: server and CLI reports diverge:\nserver: %s\ncli: %s",
					name, in, serverNorm, cliNorm)
			}
		}
		// The reports must carry real content, not agree on emptiness.
		var res dqbatch.Result
		if err := json.Unmarshal(serverReport, &res); err != nil {
			t.Fatal(err)
		}
		if res.Records == 0 || res.Failed == 0 || res.Malformed == 0 ||
			len(res.DecodeErrors) == 0 || len(res.CrossRecords) == 0 {
			t.Fatalf("%s: report lacks expected content: %+v", name, res)
		}
	}

	// The whole run's quality attribution is visible on the obs surface.
	status, metrics := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	for _, want := range []string{
		`dqserve_jobs_total{state="submitted"} 2`,
		`dqserve_jobs_total{state="completed"} 2`,
		"dq_score{",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	status, quality := get(t, ts, "/debug/quality")
	if status != http.StatusOK || !strings.Contains(string(quality), "characteristic") {
		t.Fatalf("/debug/quality = %d: %s", status, quality)
	}
}

// TestInlineModelSubmission validates the multipart path: a job shipping
// its own model file produces the same report as one referencing the
// server-side copy.
func TestInlineModelSubmission(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	records := makeNDJSON(300)

	modelData, err := os.ReadFile(cfg.DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mp, _ := mw.CreateFormFile("model", "easychair.xml")
	mp.Write(modelData)
	rp, _ := mw.CreateFormFile("records", "records.ndjson")
	rp.Write([]byte(records))
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart submit = %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	j := waitDone(t, s, acc.ID)
	if j.State() != dqserve.StateDone {
		t.Fatalf("state = %s", j.State())
	}
	_, inlineReport := get(t, ts, "/v1/jobs/"+acc.ID+"/report")

	code, refID := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	waitDone(t, s, refID)
	_, refReport := get(t, ts, "/v1/jobs/"+refID+"/report")
	if normalizeReport(t, inlineReport) != normalizeReport(t, refReport) {
		t.Fatal("inline-model report diverges from server-model report")
	}
	// Only the reference job's server-side model is cached: an inline
	// model is a per-job file, and caching its enforcer would leak one
	// dead entry per submission.
	if n := s.EnforcerCacheSize(); n != 1 {
		t.Fatalf("enforcer cache size = %d, want 1 (inline models must not be cached)", n)
	}
}

// TestQueueBoundSheds503 saturates the admission valve: with one worker
// held busy and the queued+running bound at 2, a third submission is shed
// with 503 and counted on /metrics.
func TestQueueBoundSheds503(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 2
	cfg.JobWorkers = 1
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.SetBeforeRun(func(*dqserve.Job) {
		startedOnce.Do(func() { close(started) })
		<-release
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	records := makeNDJSON(50)
	code, idA := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit A = %d", code)
	}
	<-started // A is on the worker, holding it
	code, idB := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit B = %d", code)
	}
	code, _ = submit(t, ts, "", records)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit C = %d, want 503", code)
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="shed_queue"} 1`) {
		t.Fatalf("/metrics missing shed_queue count:\n%s", metrics)
	}

	close(release)
	for _, id := range []string{idA, idB} {
		if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
			t.Fatalf("job %s state = %s", id, j.State())
		}
	}
}

// TestRateLimitSheds429 exercises the per-client token bucket on the
// submit path.
func TestRateLimitSheds429(t *testing.T) {
	cfg := testConfig(t)
	cfg.RatePerSec = 0.001
	cfg.RateBurst = 1
	s, ts := startServer(t, cfg)
	records := makeNDJSON(20)

	code, id := submit(t, ts, "", records)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	code, _ = submit(t, ts, "", records)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", code)
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="shed_rate"} 1`) {
		t.Fatalf("/metrics missing shed_rate count:\n%s", metrics)
	}
	waitDone(t, s, id)
}

// TestCancelRunningJobYieldsPartialReport cancels a job mid-stream and
// checks the partial report is well-formed, marked cancelled, and
// rendered through the shared dqbatch.RenderReport path — the same bytes
// the CLI's SIGINT partial rendering would produce for this Result.
func TestCancelRunningJobYieldsPartialReport(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	s, ts := startServer(t, cfg)

	const total = 300000
	records := makeNDJSON(total)
	code, id := submit(t, ts, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Wait until the engine is demonstrably mid-stream.
	deadline := time.Now().Add(20 * time.Second)
	for s.Job(id).Records() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started reading")
		}
		time.Sleep(200 * time.Microsecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}

	j := waitDone(t, s, id)
	if j.State() != dqserve.StateCancelled {
		t.Fatalf("state = %s, want cancelled", j.State())
	}
	status, report := get(t, ts, "/v1/jobs/"+id+"/report")
	if status != http.StatusOK {
		t.Fatalf("report = %d: %s", status, report)
	}
	var res dqbatch.Result
	if err := json.Unmarshal(report, &res); err != nil {
		t.Fatalf("partial report is not a Result: %v", err)
	}
	if res.Records == 0 || res.Records >= total {
		t.Fatalf("partial records = %d, want mid-stream (0 < n < %d)", res.Records, total)
	}
	// Progress counts exactly the records that reached the report.
	if got := j.Records(); got != res.Records {
		t.Fatalf("progress records = %d, partial report records = %d", got, res.Records)
	}
	if len(res.Characteristics) == 0 {
		t.Fatal("partial report lost its characteristics")
	}

	// Pin the served bytes to the shared renderer over the job's Result:
	// this is exactly what internal/cli/batch.go does with its partial
	// result on SIGINT.
	var want bytes.Buffer
	if err := dqbatch.RenderReport(&want, j.Result(), "json"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, want.Bytes()) {
		t.Fatal("served partial report diverges from RenderReport over the job's Result")
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="cancelled"} 1`) {
		t.Fatalf("/metrics missing cancelled count:\n%s", metrics)
	}
}

// TestRestartResumesInterruptedJob kills the server mid-validation and
// restarts it on the same staging dir: the job is re-admitted, re-run
// from its staged input, and its report equals an uninterrupted run's.
func TestRestartResumesInterruptedJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	s1, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())

	const total = 300000
	records := makeNDJSON(total)
	code, id := submit(t, ts1, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s1.Job(id).Records() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started reading")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s1.Abort() // simulated SIGKILL: on-disk state stays mid-flight
	ts1.Close()

	// The dead run's progress checkpoints are record-aligned positions a
	// status probe can report after restart.
	if j := s1.Job(id); j.State() != dqserve.StateRunning {
		t.Fatalf("aborted in-memory state = %s, want running", j.State())
	}

	s2, ts2 := startServer(t, cfg)
	j2 := s2.Job(id)
	if j2 == nil {
		t.Fatal("restarted server lost the job")
	}
	j := waitDone(t, s2, id)
	if j.State() != dqserve.StateDone {
		t.Fatalf("resumed state = %s", j.State())
	}
	_, resumedReport := get(t, ts2, "/v1/jobs/"+id+"/report")

	_, metrics := get(t, ts2, "/metrics")
	if !strings.Contains(string(metrics), `dqserve_jobs_total{state="resumed"} 1`) {
		t.Fatalf("/metrics missing resumed count:\n%s", metrics)
	}

	// Uninterrupted reference run on the restarted server.
	code, refID := submit(t, ts2, "?workers=1&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	waitDone(t, s2, refID)
	_, refReport := get(t, ts2, "/v1/jobs/"+refID+"/report")
	if normalizeReport(t, resumedReport) != normalizeReport(t, refReport) {
		t.Fatal("resumed report diverges from uninterrupted run")
	}
}

// TestRestartResumesLegacyRowsManifest resumes an interrupted job whose
// manifest still carries the retired "rows" option: the option is ignored
// and the resumed report equals the job's original one.
func TestRestartResumesLegacyRowsManifest(t *testing.T) {
	cfg := testConfig(t)
	s1, ts1 := startServer(t, cfg)
	records := makeNDJSON(3000)
	code, id := submit(t, ts1, "?workers=2&unique=email_address", records)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, s1, id)
	_, original := get(t, ts1, "/v1/jobs/"+id+"/report")
	s1.Abort()

	// Rewrite the finished job as an interrupted one staged by an older
	// server: running, no report yet, "rows": true among its options.
	path := filepath.Join(cfg.StagingDir, id+".job")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["state"] = dqserve.StateRunning
	m["options"].(map[string]any)["rows"] = true
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cfg.StagingDir, id+".report.json")); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := startServer(t, cfg)
	if j := waitDone(t, s2, id); j.State() != dqserve.StateDone {
		t.Fatalf("resumed state = %s", j.State())
	}
	_, resumed := get(t, ts2, "/v1/jobs/"+id+"/report")
	if _, metrics := get(t, ts2, "/metrics"); !strings.Contains(string(metrics), `dqserve_jobs_total{state="resumed"} 1`) {
		t.Fatalf("/metrics missing resumed count:\n%s", metrics)
	}
	if normalizeReport(t, resumed) != normalizeReport(t, original) {
		t.Fatalf("resumed report diverges from the original:\nresumed: %s\noriginal: %s", resumed, original)
	}
}

// TestRestartFailsJobWithInterruptedStaging fabricates what a crash
// mid-upload leaves behind: a queued manifest whose checkpoint never
// sealed. The restart scan must fail the job (we cannot validate input we
// never fully received) and truncate the input to the durable bytes.
func TestRestartFailsJobWithInterruptedStaging(t *testing.T) {
	cfg := testConfig(t)
	if err := os.MkdirAll(cfg.StagingDir, 0o755); err != nil {
		t.Fatal(err)
	}
	id := "deadbeef0000"
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(cfg.StagingDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(id+".input", "{\"a\":\"1\"}\n{\"a\":")
	writeFile(id+".ckpt", `{"staged_bytes":10,"staged_complete":false}`)
	manifest := fmt.Sprintf(
		`{"id":%q,"model":"default","model_path":%q,"format":"ndjson","state":"queued","created":"2026-01-01T00:00:00Z"}`,
		id, cfg.DefaultModel)
	writeFile(id+".job", manifest)

	s, ts := startServer(t, cfg)
	j := s.Job(id)
	if j == nil {
		t.Fatal("interrupted job not registered")
	}
	if j.State() != dqserve.StateFailed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	status, body := get(t, ts, "/v1/jobs/"+id)
	if status != http.StatusOK || !strings.Contains(string(body), "staging interrupted") {
		t.Fatalf("status doc = %d: %s", status, body)
	}
	info, err := os.Stat(filepath.Join(cfg.StagingDir, id+".input"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 10 {
		t.Fatalf("input truncated to %d bytes, want 10", info.Size())
	}
}

// TestRestartServesFinishedReports checks terminal jobs survive restarts
// byte-for-byte: the persisted report is what the new process serves.
func TestRestartServesFinishedReports(t *testing.T) {
	cfg := testConfig(t)
	s1, ts1 := startServer(t, cfg)
	code, id := submit(t, ts1, "", makeNDJSON(200))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, s1, id)
	_, before := get(t, ts1, "/v1/jobs/"+id+"/report")
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := startServer(t, cfg)
	status, after := get(t, ts2, "/v1/jobs/"+id+"/report")
	if status != http.StatusOK {
		t.Fatalf("restarted report = %d", status)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("restart changed the served report bytes")
	}
	// Text rendering still works on the restored Result.
	status, text := get(t, ts2, "/v1/jobs/"+id+"/report?format=text")
	if status != http.StatusOK || !strings.Contains(string(text), "records") {
		t.Fatalf("text report = %d: %s", status, text)
	}
}

// errReader yields err on every Read — the tail of a truncated upload.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestTruncatedUploadRejected drives the submit handler with a body that
// ends in io.ErrUnexpectedEOF — what net/http yields when a client
// disconnects mid-body on a Content-Length request. The submission must
// fail with a client error (a truncated upload must never be sealed,
// validated and served as a confident report over partial data), leave no
// staging files behind, and release its admission slot.
func TestTruncatedUploadRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 1
	s, _ := startServer(t, cfg)

	body := io.MultiReader(
		strings.NewReader(makeNDJSON(50)),
		errReader{err: io.ErrUnexpectedEOF},
	)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated submit = %d, want 400: %s", rec.Code, rec.Body)
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("truncated submission left staging files: %v", entries)
	}
	// The slot came back: with MaxJobs=1 a good submission still fits.
	rec2 := httptest.NewRecorder()
	req2 := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(makeNDJSON(20)))
	s.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusAccepted {
		t.Fatalf("follow-up submit = %d, want 202: %s", rec2.Code, rec2.Body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, acc.ID)
}

// TestCancelQueuedJobDoesNotWedgeSubmit reproduces the cancelled-ghost
// overflow: cancelling queued jobs and resubmitting used to fill the
// queue channel with cancelled ghosts until `s.queue <- j` blocked the
// submit handler. A cancelled-but-queued job now keeps its admission slot
// (followers shed with an immediate 503 instead of blocking) and the slot
// frees only when a worker drains the ghost.
func TestCancelQueuedJobDoesNotWedgeSubmit(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobs = 2
	cfg.JobWorkers = 1
	s, err := dqserve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.SetBeforeRun(func(*dqserve.Job) {
		startedOnce.Do(func() { close(started) })
		<-release
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The timeout is the regression detector: with the old behaviour the
	// submit handler blocks forever on the ghost-filled channel.
	client := &http.Client{Timeout: 10 * time.Second}
	post := func() (int, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/x-ndjson",
			strings.NewReader(makeNDJSON(30)))
		if err != nil {
			t.Fatalf("submit blocked: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var acc struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(data, &acc)
		return resp.StatusCode, acc.ID
	}
	cancel := func(id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s = %d", id, resp.StatusCode)
		}
	}

	code, runID := post()
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-started // the worker is now held mid-job

	// Repeatedly cancel whatever queues and resubmit: each round used to
	// leave a ghost in the channel, overflowing its capacity (2) on the
	// third round and wedging the handler.
	for round := 0; round < 4; round++ {
		code, id := post()
		switch code {
		case http.StatusAccepted:
			if j := s.Job(id); j.State() != dqserve.StateQueued {
				t.Fatalf("round %d: state = %s, want queued", round, j.State())
			}
			cancel(id)
		case http.StatusServiceUnavailable:
			// A previous ghost still holds its slot — the admission valve
			// says no instead of letting the enqueue block.
		default:
			t.Fatalf("round %d: submit = %d", round, code)
		}
	}

	close(release)
	if j := waitDone(t, s, runID); j.State() != dqserve.StateDone {
		t.Fatalf("running job state = %s", j.State())
	}
	// With the worker free the ghosts drain and their slots return: a new
	// submission is admitted and completes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, id := post()
		if code == http.StatusAccepted {
			if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
				t.Fatalf("post-drain job state = %s", j.State())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slots never freed after ghosts drained: submit = %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBodySizeCapSheds413 checks the submission body cap: an upload past
// MaxBodyBytes is rejected with 413 (before it can fill the staging
// disk), its slot comes back, and a small job still runs.
func TestBodySizeCapSheds413(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBodyBytes = 512
	s, ts := startServer(t, cfg)

	code, _ := submit(t, ts, "", makeNDJSON(200))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", code)
	}
	code, id := submit(t, ts, "", `{"first_name":"A","last_name":"B","email_address":"a@b.c"}`+"\n")
	if code != http.StatusAccepted {
		t.Fatalf("small submit = %d, want 202", code)
	}
	waitDone(t, s, id)
}

// TestTerminalJobGC checks the retention sweep: a terminal job older than
// the cutoff disappears from the API and its staging files (input,
// checkpoint, report, manifest) are removed; fresher jobs survive.
func TestTerminalJobGC(t *testing.T) {
	cfg := testConfig(t)
	s, ts := startServer(t, cfg)
	code, id := submit(t, ts, "", makeNDJSON(100))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, s, id)

	if n := s.GCTerminal(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("sweep reaped %d fresh jobs, want 0", n)
	}
	if n := s.GCTerminal(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep reaped %d jobs, want 1", n)
	}
	if status, _ := get(t, ts, "/v1/jobs/"+id); status != http.StatusNotFound {
		t.Fatalf("reaped job still addressable: %d", status)
	}
	entries, err := os.ReadDir(cfg.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), id) {
			t.Fatalf("staging file survived GC: %s", e.Name())
		}
	}
}

// TestDrainCompletesJobsAndLeaksNoGoroutines submits work, drains, and
// checks the worker pool (and the engine pools under it) disappear.
func TestDrainCompletesJobsAndLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.JobWorkers = 2
	s, ts := startServer(t, cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		code, id := submit(t, ts, "", makeNDJSON(500))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if j := waitDone(t, s, id); j.State() != dqserve.StateDone {
			t.Fatalf("job %s state = %s", id, j.State())
		}
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > %d+2 after drain\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
