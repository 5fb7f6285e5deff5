package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// batchRun drives the built dqwebre binary as a child process, one
// `dqwebre batch` invocation per operation, exactly as a user runs it.
type batchRun struct {
	bin, model string
	in         *Input
	pipe       bool   // feed the records through stdin (-in -) instead of -in <file>
	cross      bool   // add -unique/-ref on email_address
	records    []byte // the record file's bytes, fed to stdin when piped
}

func newBatchRun(bin, model string, in *Input, pipe, cross bool) (*batchRun, error) {
	data, err := os.ReadFile(in.Records)
	if err != nil {
		return nil, err
	}
	return &batchRun{bin: bin, model: model, in: in, pipe: pipe, cross: cross, records: data}, nil
}

// invocation is one measured child process.
type invocation struct {
	wall, cpu, rssMiB float64
	report            []byte
}

// invokeTimeout bounds one child process; far above any sized input.
const invokeTimeout = 90 * time.Second

// invoke runs one batch over path (or, when piping, over stdin fed with
// data) and returns its timings and JSON report. A non-zero exit is an
// error carrying the child's stderr.
//
// The batch runs under a launcher: a fresh perfbench process that starts
// it, times it and reports its rusage on fd 3. Linux charges a process
// started from a large parent with that parent's peak RSS, so starting
// dqwebre from this process directly would report the harness's memory
// as dqwebre's.
func (b *batchRun) invoke(ctx context.Context, pipe bool, path string, data []byte) (*invocation, error) {
	ctx, cancel := context.WithTimeout(ctx, invokeTimeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"launch", "--", b.bin, "batch", "-model", b.model, "-report", "json"}
	if b.cross {
		args = append(args, "-unique", "email_address", "-ref", b.in.Ref, "-ref-key", "email_address")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	if pipe {
		cmd.Args = append(cmd.Args, "-in", "-")
		cmd.Stdin = bytes.NewReader(data)
	} else {
		cmd.Args = append(cmd.Args, "-in", path)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	statsR, statsW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer statsR.Close()
	cmd.ExtraFiles = []*os.File{statsW}
	err = cmd.Start()
	statsW.Close()
	if err != nil {
		return nil, err
	}
	var st launchStats
	decErr := json.NewDecoder(statsR).Decode(&st)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("dqwebre batch: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if decErr != nil {
		return nil, fmt.Errorf("launcher stats: %w", decErr)
	}
	return &invocation{wall: st.Wall, cpu: st.CPU, rssMiB: st.MaxRSSKiB / 1024, report: stdout.Bytes()}, nil
}

// launchStats is what the launcher reports about the command it ran.
type launchStats struct {
	Wall      float64 `json:"wall_s"`
	CPU       float64 `json:"cpu_s"`
	MaxRSSKiB float64 `json:"max_rss_kib"`
}

// launch runs the command after "--" with this process's stdin, stdout
// and stderr, writes its launchStats to fd 3 and exits with its status.
// The command is killed if the launcher dies first.
func launch(args []string) error {
	if len(args) < 2 || args[0] != "--" {
		return fmt.Errorf("usage: perfbench launch -- <command> [args]")
	}
	stats := os.NewFile(3, "stats")
	syscall.CloseOnExec(3)
	cmd := exec.Command(args[1], args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0).Seconds()
	if cmd.ProcessState == nil {
		return runErr
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return fmt.Errorf("no rusage for %s", args[1])
	}
	if err := json.NewEncoder(stats).Encode(launchStats{
		Wall:      wall,
		CPU:       tv(ru.Utime) + tv(ru.Stime),
		MaxRSSKiB: float64(ru.Maxrss), // Linux reports KiB
	}); err != nil {
		return err
	}
	if err := stats.Close(); err != nil {
		return err
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		os.Exit(code)
	}
	return nil
}

// parity runs the workload's records through every ingest path the
// options allow: `dqwebre batch -in <file>` (memory-mapped span decoder),
// `-in -` fed through a pipe (streaming decoder) and, without -ref, which
// the job server does not offer, a dqserve job. Each report is gated
// against the planted truth and must equal the file path's report byte
// for byte once timing fields are stripped, mean_score rounding aside (see
// sameReport); a report that differs fails its operation. It also warms
// the page cache before anything is timed.
func (b *batchRun) parity(ctx context.Context, tally *tally) error {
	file, err := b.invoke(ctx, false, b.in.Records, nil)
	if err == nil {
		err = gate(file.report, &b.in.Truth, b.cross)
	}
	if !tally.record(err) {
		return fmt.Errorf("file-path invocation failed: %s", tally.firstErr())
	}
	pipe, err := b.invoke(ctx, true, "", b.records)
	if err == nil {
		err = gate(pipe.report, &b.in.Truth, b.cross)
	}
	if err == nil {
		err = tally.compare(pipe.report, file.report)
	}
	tally.record(wrap("pipe path", err))
	if b.cross {
		return nil
	}
	s, err := startServer(defaultConfig(filepath.Join(filepath.Dir(b.in.Records), "parity-staging"), b.model))
	if err != nil {
		return err
	}
	_, rep, err := s.job(ctx, b.records, false)
	if err == nil {
		err = gate(rep, &b.in.Truth, false)
	}
	if err == nil {
		err = tally.compare(rep, file.report)
	}
	tally.record(wrap("job server", err))
	return s.stop()
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// run measures one batch workload: the parity check, set-up over an empty
// input, then repeated full invocations for the given duration. Every
// invocation is gated against the planted truth; a failed one is counted
// and never timed.
func (b *batchRun) run(ctx context.Context, emptyPath string, seconds float64, tally *tally) (map[string]metric, map[string][]float64, error) {
	if err := b.parity(ctx, tally); err != nil {
		return nil, nil, err
	}
	op := func(path string, data []byte, truth *Truth) *invocation {
		inv, err := b.invoke(ctx, b.pipe, path, data)
		if err == nil {
			err = gate(inv.report, truth, b.cross)
		}
		if !tally.record(err) {
			return nil
		}
		return inv
	}

	// Set-up: the same invocation over an empty validated input, repeated
	// and reduced to the median so one cold start cannot move it.
	empty := &Truth{}
	var setup []float64
	for i := 0; i < setupReps(setup); i++ {
		if inv := op(emptyPath, nil, empty); inv != nil {
			setup = append(setup, inv.wall)
		}
	}

	var walls, rps, cpu, rss []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for tries := 0; time.Now().Before(deadline) || (len(walls) < minOps && tries < maxTries); tries++ {
		inv := op(b.in.Records, b.records, &b.in.Truth)
		if inv == nil {
			continue
		}
		n := float64(b.in.Truth.Records)
		walls = append(walls, inv.wall)
		rps = append(rps, n/inv.wall)
		cpu = append(cpu, inv.cpu/n*1e6)
		rss = append(rss, inv.rssMiB)
	}
	if len(walls) == 0 || len(setup) == 0 {
		return nil, nil, fmt.Errorf("no invocation succeeded: %s", tally.firstErr())
	}
	ms := make([]float64, len(walls))
	var busy float64
	for i, w := range walls {
		ms[i] = w * 1e3
		busy += w
	}
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"records_per_s":  {median(rps), "records/s"},
		"cpu_s_per_mrec": {median(cpu), "s/Mrecord"},
		"peak_rss_mb":    {median(rss), "MiB"},
		// Back to back, one invocation after another: the rate at which
		// gated invocations complete, over the time they took.
		"jobs_per_s": {float64(len(walls)) / busy, "jobs/s"},
		"job_p50_ms": {median(ms), "ms"},
		"job_p90_ms": {quantile(ms, 0.9), "ms"},
	}, map[string][]float64{"setup_s": setup, "wall_s": walls, "cpu_s_per_mrec": cpu, "peak_rss_mib": rss}, nil
}

// minOps is the fewest timed operations a run reports on, whatever its
// duration, unless maxTries operations have been attempted.
const (
	minOps   = 3
	maxTries = 20
)

// setupReps returns how many set-up samples to take given those so far:
// many for a cold start of a few milliseconds, fewer when set-up includes
// a reference pass of a second or so.
func setupReps(sofar []float64) int {
	if len(sofar) > 0 && sofar[0] > 0.1 {
		return 5
	}
	return 15
}
