// Command perfbench is the repository's end-to-end benchmark: it generates
// seeded inputs, runs one workload against the dqwebre batch command or
// the dqserve job server, checks every report against the planted truth,
// and prints each metric with its unit. With -trace 1 it instead replays
// the workload's layers in-process and reports per-layer metrics.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload file_reviews --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// workloadSpec sizes and shapes one workload; see README.md for why each
// exists.
type workloadSpec struct {
	lines int  // generated record lines, malformed ones included
	pipe  bool // records reach dqwebre batch through stdin
	cross bool // -unique and -ref over email_address
	serve bool // jobs against an in-process dqserve.Server
}

var workloads = map[string]workloadSpec{
	"file_reviews": {lines: 100_000},
	"pipe_reviews": {lines: 20_000, pipe: true},
	// 320k lines hold about 280k distinct keys: above the exact cap
	// (dqruntime.DefaultMaxExact) on each of two workers, so uniqueness
	// spills to its Bloom filter mid-run.
	"cross_ref":  {lines: 320_000, cross: true},
	"serve_jobs": {lines: 50_000, serve: true},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and keeps the first few failure causes. It is
// shared by concurrent clients.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
	// meanDrift counts mean_score lines that matched their reference
	// only to rounding in parity comparisons.
	meanDrift int
}

// record counts one operation, failed when err is non-nil, and reports
// whether it succeeded.
func (t *tally) record(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// compare is sameReport, counting the mean_score lines that differed
// only by rounding.
func (t *tally) compare(got, ref []byte) error {
	drift, err := sameReport(got, ref)
	t.mu.Lock()
	t.meanDrift += drift
	t.mu.Unlock()
	return err
}

func (t *tally) firstErr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) == 0 {
		return "no error recorded"
	}
	return t.errs[0]
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "serve-child":
		err = serveChild(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "launch":
		err = launch(os.Args[2:])
	default:
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement duration per run")
	trace := fs.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	bin := fs.String("bin", "", "built dqwebre binary")
	work := fs.String("work", ".bench_build", "directory for inputs, results and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (one of %v)", *name, names)
	}
	if *bin == "" {
		return fmt.Errorf("-bin is required")
	}
	if err := os.MkdirAll(filepath.Join(*work, "tmp"), 0o755); err != nil {
		return err
	}
	outDir := filepath.Join(*work, "results")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(*work, "tmp"), *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	cpuStart := readCPUTimes()
	model := filepath.Join(dir, "easychair.xml")
	xml, err := exec.CommandContext(ctx, *bin, "demo").Output()
	if err != nil {
		return fmt.Errorf("dqwebre demo: %w", err)
	}
	if err := os.WriteFile(model, xml, 0o644); err != nil {
		return err
	}
	empty := filepath.Join(dir, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		return err
	}
	genStart := time.Now()
	in, err := generate(dir, *seed, spec.lines)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	inputPath := filepath.Join(dir, "input.json")
	if err := writeJSON(inputPath, in); err != nil {
		return err
	}

	host := hostBlock(dir)
	props := in.Properties()
	props["generate_s"] = time.Since(genStart).Seconds()
	printJSONLine("host", host)
	printJSONLine("input", props)

	t := &tally{}
	var metrics map[string]metric
	var samples map[string][]float64
	switch {
	case *trace == 1:
		metrics, err = traceRun(ctx, spec, *name, in, model, dir, *bin, outDir, *seed, t)
	case spec.serve:
		metrics, samples, err = runServe(ctx, *bin, model, in, inputPath, dir, *seconds, t)
	default:
		var b *batchRun
		if b, err = newBatchRun(*bin, model, in, spec.pipe, spec.cross); err == nil {
			metrics, samples, err = b.run(ctx, empty, *seconds, t)
		}
	}
	if err != nil {
		return err
	}

	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	load := hostLoad(cpuStart)
	printJSONLine("host_load", load)
	verdict := "correct"
	if t.failed > 0 {
		verdict = fmt.Sprintf("INCORRECT: %d of %d operations failed: %v", t.failed, t.attempted, t.errs)
	}
	fmt.Printf("%s: %d operations, %s; %d mean_score values matched the reference only to rounding\n",
		*name, t.attempted, verdict, t.meanDrift)

	result := map[string]any{
		"correct":   t.failed == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   metrics,
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)), map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "host_load": load, "input": props, "errors": t.errs, "mean_score_drift": t.meanDrift, "samples": samples, "result": result,
	}); err != nil {
		return err
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printJSONLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s: %s\n", label, b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
