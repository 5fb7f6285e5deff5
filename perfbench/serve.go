package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqserve"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// serveClients is the closed loop's client count: each client submits its
// next job only after fetching the previous report. Two keeps the load at
// or below the CPUs of a small host while still making jobs queue behind
// each other on the server's single default job worker.
const serveClients = 2

// server is an in-process dqserve.Server behind a loopback listener.
type server struct {
	srv *dqserve.Server
	ts  *httptest.Server
}

// startServer boots a job server with the product's default Config apart
// from the required staging directory and model loader.
func startServer(cfg dqserve.Config) (*server, error) {
	srv, err := dqserve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &server{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func defaultConfig(staging, model string) dqserve.Config {
	return dqserve.Config{StagingDir: staging, LoadEnforcer: cli.LoadEnforcer, DefaultModel: model}
}

func (s *server) stop() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// jobTimes is one job's latency as its client sees it, and the server's
// queue and run phases when the status was fetched. The traced run splits
// the client's side with spans.
type jobTimes struct {
	total, queue, run time.Duration
	records           int64
}

// job runs one job through the public API: POST the records, wait on the
// job's Done channel, then GET the JSON report. Anything but an accepted
// submission, a job that ends "done" and a 200 report is an error: a shed
// (503/429), failed or cancelled job never yields a report.
func (s *server) job(ctx context.Context, body []byte, withStatus bool) (jobTimes, []byte, error) {
	var jt jobTimes
	t0 := time.Now()
	_, sp := obs.StartSpan(ctx, "dqserve.submit")
	resp, err := s.ts.Client().Post(s.ts.URL+"/v1/jobs", "application/x-ndjson", bytes.NewReader(body))
	sp.End()
	if err != nil {
		return jt, nil, fmt.Errorf("submitting: %w", err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jt, nil, fmt.Errorf("submission answered %s", resp.Status)
	}
	if err != nil {
		return jt, nil, fmt.Errorf("reading submission answer: %w", err)
	}
	t1 := time.Now()
	j := s.srv.Job(acc.ID)
	if j == nil {
		return jt, nil, fmt.Errorf("job %s unknown to the server", acc.ID)
	}
	_, sp = obs.StartSpan(ctx, "dqserve.wait")
	select {
	case <-j.Done():
	case <-ctx.Done():
		return jt, nil, ctx.Err()
	}
	sp.End()
	if st := j.State(); st != dqserve.StateDone {
		return jt, nil, fmt.Errorf("job %s ended %s", acc.ID, st)
	}
	_, sp = obs.StartSpan(ctx, "dqserve.report")
	resp, err = s.ts.Client().Get(s.ts.URL + "/v1/jobs/" + acc.ID + "/report")
	if err != nil {
		return jt, nil, fmt.Errorf("fetching report: %w", err)
	}
	rep, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	if resp.StatusCode != http.StatusOK {
		return jt, nil, fmt.Errorf("report answered %s", resp.Status)
	}
	if err != nil {
		return jt, nil, fmt.Errorf("reading report: %w", err)
	}
	t3 := time.Now()
	jt = jobTimes{total: t3.Sub(t0), records: j.Records()}
	if withStatus {
		var st struct {
			Started, Finished time.Time
		}
		resp, err := s.ts.Client().Get(s.ts.URL + "/v1/jobs/" + acc.ID)
		if err != nil {
			return jt, nil, fmt.Errorf("fetching status: %w", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return jt, nil, fmt.Errorf("reading status: %w", err)
		}
		jt.queue = st.Started.Sub(t1)
		jt.run = st.Finished.Sub(st.Started)
	}
	return jt, rep, nil
}

// gatedJob is one counted operation: the job plus the report gate.
func (s *server) gatedJob(ctx context.Context, body []byte, truth *Truth, withStatus bool, t *tally) (jobTimes, bool) {
	jt, rep, err := s.job(ctx, body, withStatus)
	if err == nil {
		err = gate(rep, truth, false)
	}
	return jt, t.record(err)
}

// closedLoop runs serveClients clients until each has done perClient jobs
// (perClient > 0) or the deadline passed (perClient == 0). A job started
// before the deadline always completes.
func closedLoop(perClient int, deadline time.Time, op func()) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; perClient == 0 || i < perClient; i++ {
				if perClient == 0 && !time.Now().Before(deadline) {
					return
				}
				op()
			}
		}()
	}
	wg.Wait()
}

// serveResult is what the serve child reports to the parent.
type serveResult struct {
	Setup     []float64 `json:"setup_s"`
	LatencyMS []float64 `json:"latency_ms"`
	Records   int64     `json:"records"`
	Elapsed   float64   `json:"elapsed_s"`
	CPU       float64   `json:"cpu_s"`
	RSSMiB    float64   `json:"peak_rss_mib"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors"`
}

// serveSetupReps is how many fresh servers set-up time is the median of.
// An empty job still makes several fsyncs, so one sample is mostly disk
// jitter.
const serveSetupReps = 25

// serveChild hosts the server and its clients in a process of their own,
// so CPU time and peak RSS belong to the system under test and not to the
// generator or the parent's bookkeeping.
func serveChild(args []string) error {
	fs := flag.NewFlagSet("serve-child", flag.ContinueOnError)
	inputPath := fs.String("input", "", "generated input description (JSON)")
	model := fs.String("model", "", "model file")
	dir := fs.String("dir", "", "working directory for staging")
	seconds := fs.Float64("seconds", 10, "measurement duration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in Input
	if err := readJSON(*inputPath, &in); err != nil {
		return err
	}
	body, err := os.ReadFile(in.Records)
	if err != nil {
		return err
	}
	ctx := context.Background()
	out := serveResult{}
	t := &tally{}

	// Set-up: NewServer to the first answered (empty) job, on a fresh
	// staging directory each time.
	empty := &Truth{}
	for i := 0; i < serveSetupReps; i++ {
		t0 := time.Now()
		s, err := startServer(defaultConfig(filepath.Join(*dir, "setup-"+strconv.Itoa(i)), *model))
		if err != nil {
			return err
		}
		_, ok := s.gatedJob(ctx, nil, empty, false, t)
		if ok {
			out.Setup = append(out.Setup, time.Since(t0).Seconds())
		}
		if err := s.stop(); err != nil {
			return err
		}
	}

	s, err := startServer(defaultConfig(filepath.Join(*dir, "staging"), *model))
	if err != nil {
		return err
	}
	// Warm-up: one gated job per client, untimed, so the first timed jobs
	// do not pay for the enforcer load and cold staging files.
	closedLoop(1, time.Time{}, func() { s.gatedJob(ctx, body, &in.Truth, false, t) })

	var mu sync.Mutex
	cpu0 := selfCPU()
	start := time.Now()
	closedLoop(0, start.Add(time.Duration(*seconds*float64(time.Second))), func() {
		jt, ok := s.gatedJob(ctx, body, &in.Truth, false, t)
		if !ok {
			return
		}
		mu.Lock()
		out.LatencyMS = append(out.LatencyMS, float64(jt.total)/float64(time.Millisecond))
		out.Records += jt.records
		mu.Unlock()
	})
	out.Elapsed = time.Since(start).Seconds()
	out.CPU = selfCPU() - cpu0
	if err := s.stop(); err != nil {
		return err
	}
	if out.RSSMiB, err = peakRSSMiB(); err != nil {
		return err
	}
	out.Attempted, out.Failed, out.Errors = t.attempted, t.failed, t.errs
	return json.NewEncoder(os.Stdout).Encode(out)
}

// peakRSSMiB is this process's peak RSS since exec, from VmHWM. getrusage
// would also count the peak of the parent this process was started from.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// runServe measures the serve_jobs workload: the parity check, then the
// serve child, whose samples become the end-to-end metrics.
func runServe(ctx context.Context, bin, model string, in *Input, inputPath, dir string, seconds float64, t *tally) (map[string]metric, map[string][]float64, error) {
	b, err := newBatchRun(bin, model, in, false, false)
	if err != nil {
		return nil, nil, err
	}
	if err := b.parity(ctx, t); err != nil {
		return nil, nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, time.Duration(seconds)*time.Second+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(cctx, self, "serve-child", "-input", inputPath,
		"-model", model, "-dir", dir, "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("serve child: %w", err)
	}
	var r serveResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, nil, fmt.Errorf("serve child output: %w", err)
	}
	t.attempted += r.Attempted
	t.failed += r.Failed
	t.errs = append(t.errs, r.Errors...)
	if len(r.LatencyMS) == 0 || len(r.Setup) == 0 {
		return nil, nil, fmt.Errorf("no job succeeded: %s", t.firstErr())
	}
	return map[string]metric{
		"setup_s":        {median(r.Setup), "s"},
		"records_per_s":  {float64(r.Records) / r.Elapsed, "records/s"},
		"cpu_s_per_mrec": {r.CPU / float64(r.Records) * 1e6, "s/Mrecord"},
		"peak_rss_mb":    {r.RSSMiB, "MiB"},
		"jobs_per_s":     {float64(len(r.LatencyMS)) / r.Elapsed, "jobs/s"},
		"job_p50_ms":     {median(r.LatencyMS), "ms"},
		"job_p90_ms":     {quantile(r.LatencyMS, 0.9), "ms"},
	}, map[string][]float64{"setup_s": r.Setup, "latency_ms": r.LatencyMS}, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
