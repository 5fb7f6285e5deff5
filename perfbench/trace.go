package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// The traced run replays the product's layers in-process over the
// workload's generated files, one rung per layer call in the order the
// product makes them. Each rung is a span opened here, around calls into
// the layer's public functions; each call is a child span. A rung's time
// is the sum of its call spans, so the loop around the calls is excluded.
//
// Every rung runs on every workload, so each traced run reports the whole
// ladder; layers_sum adds only the rungs on the workload's own path.

const (
	spanLines        = 256 // the engine's default chunk size
	loadCalls        = 5
	renderCalls      = 5
	ladderJobsClient = 4
)

// rungCost is a rung's work count, wall time and heap allocations in one
// pass.
type rungCost struct {
	units         float64
	wall          time.Duration
	allocs, bytes float64
}

// ladderRun is one pass over the ladder.
type ladderRun struct {
	ctx   context.Context
	tr    *obs.Tracer
	in    *Input
	model string
	dir   string
	t     *tally

	costs map[string]*rungCost
	// Server-side job phases, from each job's status document.
	queue, run time.Duration
	jobs       int
	jobLatency time.Duration // client-side, upload start to report fetched
	jobRecords int64
}

// rung runs f inside a span named name and records its work count, wall
// time and allocations.
func (l *ladderRun) rung(name string, f func(ctx context.Context) (units float64, err error)) error {
	// Collect first, so no rung pays for garbage an earlier one left.
	runtime.GC()
	ctx, sp := l.tr.Start(l.ctx, name)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	units, err := f(ctx)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	sp.End()
	if err != nil {
		sp.Fail(err)
		l.t.record(fmt.Errorf("%s: %w", name, err))
		return err
	}
	l.t.record(nil)
	l.costs[name] = &rungCost{
		units:  units,
		wall:   wall,
		allocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:  float64(m1.TotalAlloc - m0.TotalAlloc),
	}
	return nil
}

// call times one layer call as a child span of the rung.
func call(ctx context.Context, name string, f func()) {
	_, sp := obs.StartSpan(ctx, name)
	f()
	sp.End()
}

// runLadder replays every rung once; tr nil is the untraced pass.
func runLadder(ctx context.Context, tr *obs.Tracer, in *Input, model, dir string, t *tally) (*ladderRun, error) {
	l := &ladderRun{tr: tr, in: in, model: model, dir: dir, t: t, costs: map[string]*rungCost{}}
	root := "ladder"
	if tr != nil {
		root = "ladder (traced)"
	}
	var sp *obs.Span
	l.ctx, sp = tr.Start(ctx, root)
	err := l.steps()
	sp.End()
	return l, err
}

// inProcessWall sums the wall time of every rung but the job server's,
// whose loopback and disk jitter would swamp the cost of the spans.
func (l *ladderRun) inProcessWall() time.Duration {
	var d time.Duration
	for name, c := range l.costs {
		if name != "dqserve.job" {
			d += c.wall
		}
	}
	return d
}

func (l *ladderRun) steps() error {
	truth := &l.in.Truth
	email := []string{"email_address"}

	// cli: model load, DQR→DQSR, compile.
	var enf *dqruntime.Enforcer
	if err := l.rung("cli.load_enforcer", func(ctx context.Context) (float64, error) {
		var err error
		for i := 0; i < loadCalls && err == nil; i++ {
			call(ctx, "cli.LoadEnforcer", func() { enf, err = cli.LoadEnforcer(l.model) })
		}
		return loadCalls, err
	}); err != nil {
		return err
	}
	v := enf.Validator()

	// dqbatch: the referential check's first pass.
	var refKeys map[string]struct{}
	if err := l.rung("dqbatch.refset", func(ctx context.Context) (float64, error) {
		src, closeRef, err := dqbatch.OpenFileSource(l.in.Ref, "")
		if err != nil {
			return 0, err
		}
		defer closeRef()
		call(ctx, "dqbatch.BuildKeySet", func() { refKeys, err = dqbatch.BuildKeySet(ctx, src, email) })
		if err == nil && int64(len(refKeys)) != truth.RefKeys {
			err = fmt.Errorf("%d reference keys, planted %d", len(refKeys), truth.RefKeys)
		}
		return float64(len(refKeys)), err
	}); err != nil {
		return err
	}

	// dqbatch: newline scan over the memory-mapped file, then span decode.
	src, closeIn, err := dqbatch.OpenFileSource(l.in.Records, "ndjson")
	if err != nil {
		return err
	}
	defer closeIn()
	mm, ok := src.(*dqbatch.MmapNDJSONSource)
	if !ok {
		return fmt.Errorf("records file is not memory-mapped (%T)", src)
	}
	var spans []dqbatch.Span
	if err := l.rung("dqbatch.scan", func(ctx context.Context) (float64, error) {
		for {
			var sp dqbatch.Span
			var err error
			call(ctx, "dqbatch.NextSpan", func() { sp, err = mm.NextSpan(spanLines) })
			if err == io.EOF {
				return float64(truth.Records), nil
			}
			if err != nil {
				return 0, err
			}
			spans = append(spans, sp)
		}
	}); err != nil {
		return err
	}
	countRows := func(rows, bad int64) error {
		if rows != truth.Records || bad != truth.Malformed {
			return fmt.Errorf("decoded %d rows and %d malformed, planted %d and %d", rows, bad, truth.Records, truth.Malformed)
		}
		return nil
	}
	var batch dqruntime.ColumnBatch
	if err := l.rung("dqbatch.decode_span", func(ctx context.Context) (float64, error) {
		var rows, bad int64
		onBad := func(int64, error) { bad++ }
		for _, sp := range spans {
			batch.Reset()
			call(ctx, "dqbatch.DecodeSpan", func() { rows += int64(mm.DecodeSpan(sp, &batch, onBad)) })
		}
		return float64(rows), countRows(rows, bad)
	}); err != nil {
		return err
	}

	// dqbatch: the streaming decoder stdin input takes.
	data, err := os.ReadFile(l.in.Records)
	if err != nil {
		return err
	}
	if err := l.rung("dqbatch.decode_stream", func(ctx context.Context) (float64, error) {
		var rows, bad int64
		onBad := func(int64, error) { bad++ }
		s := dqbatch.NewNDJSONSource(bytes.NewReader(data))
		for {
			var n int
			var err error
			batch.Reset()
			call(ctx, "dqbatch.NDJSONSource.NextBatch", func() { n, err = s.NextBatch(&batch, spanLines, onBad) })
			rows += int64(n)
			if err == io.EOF {
				return float64(rows), countRows(rows, bad)
			}
			if err != nil {
				return 0, err
			}
		}
	}); err != nil {
		return err
	}

	// Pre-decoded inputs for the rungs below: records, their cells, and
	// column batches of the engine's chunk size. Built outside any rung.
	recs, err := decodeRecords(data)
	if err != nil {
		return err
	}
	if int64(len(recs)) != truth.Records {
		return fmt.Errorf("pre-decoded %d records, planted %d", len(recs), truth.Records)
	}
	var batches []*dqruntime.ColumnBatch
	for lo := 0; lo < len(recs); lo += spanLines {
		b := &dqruntime.ColumnBatch{}
		b.Columnarize(recs[lo:min(lo+spanLines, len(recs))])
		batches = append(batches, b)
	}

	// dqruntime: cell classification over pre-split cells.
	type cell struct{ name, raw string }
	rows := make([][]cell, len(recs))
	var cells int
	for i, r := range recs {
		for k, raw := range r {
			rows[i] = append(rows[i], cell{k, raw})
		}
		slices.SortFunc(rows[i], func(a, b cell) int { return strings.Compare(a.name, b.name) })
		cells += len(rows[i])
	}
	if err := l.rung("dqruntime.classify", func(ctx context.Context) (float64, error) {
		for lo := 0; lo < len(rows); lo += spanLines {
			chunk := rows[lo:min(lo+spanLines, len(rows))]
			batch.Reset()
			call(ctx, "dqruntime.ColumnBatch.SetField", func() {
				for _, row := range chunk {
					for _, c := range row {
						batch.SetField(c.name, c.raw)
					}
					batch.EndRow()
				}
			})
		}
		return float64(cells), nil
	}); err != nil {
		return err
	}

	// dqruntime: the check kernel alone.
	if err := l.rung("dqruntime.eval", func(ctx context.Context) (float64, error) {
		rep := &dqruntime.BatchReport{}
		for _, b := range batches {
			call(ctx, "dqruntime.Validator.ValidateBatch", func() { v.ValidateBatch(b, rep) })
		}
		return float64(len(recs)), nil
	}); err != nil {
		return err
	}

	// dqbatch: the engine over pre-decoded columns, one worker and all.
	decoded := *truth
	decoded.Malformed, decoded.MalformedLines = 0, nil
	colSrc := dqbatch.NewColumnSource(recs)
	var res *dqbatch.Result
	for _, w := range []struct {
		name    string
		workers int
	}{{"dqbatch.run_w1", 1}, {"dqbatch.run_wn", runtime.GOMAXPROCS(0)}} {
		if err := l.rung(w.name, func(ctx context.Context) (float64, error) {
			colSrc.Rewind()
			var err error
			call(ctx, "dqbatch.Run", func() {
				res, err = dqbatch.Run(ctx, v, colSrc, dqbatch.Options{Workers: w.workers})
			})
			if err != nil {
				return 0, err
			}
			var buf bytes.Buffer
			if err := dqbatch.RenderReport(&buf, res, "json"); err != nil {
				return 0, err
			}
			return float64(res.Records), gate(buf.Bytes(), &decoded, false)
		}); err != nil {
			return err
		}
	}

	// dqruntime: cross-record state, two per-worker states and their merge.
	uniq := dqruntime.UniquenessCheck{Fields: email}.NewStates(2, 10)
	ref := dqruntime.ReferentialCheck{Fields: email, Ref: refKeys, RefName: filepath.Base(l.in.Ref)}.NewStates(2, 10)
	observe := func(name, fn string, states []dqruntime.CheckState) error {
		return l.rung(name, func(ctx context.Context) (float64, error) {
			base := int64(1)
			for i, b := range batches {
				st := states[i%2]
				call(ctx, fn, func() { st.ObserveBatch(base, b) })
				base += int64(b.Rows())
			}
			return float64(len(recs)), nil
		})
	}
	if err := observe("dqruntime.unique", "dqruntime.uniquenessState.ObserveBatch", uniq); err != nil {
		return err
	}
	if err := observe("dqruntime.ref", "dqruntime.referentialState.ObserveBatch", ref); err != nil {
		return err
	}
	if err := l.rung("dqruntime.cross_merge", func(ctx context.Context) (float64, error) {
		call(ctx, "dqruntime.CheckState.Merge", func() { uniq[0].Merge(uniq[1]) })
		call(ctx, "dqruntime.CheckState.Merge", func() { ref[0].Merge(ref[1]) })
		u, r := uniq[0].Finding(), ref[0].Finding()
		if u.Records != truth.Records || r.Records != truth.Records || r.Violations != truth.Dangling {
			return 0, fmt.Errorf("cross findings: uniqueness %d records, referential %d records with %d violations; planted %d records, %d dangling",
				u.Records, r.Records, r.Violations, truth.Records, truth.Dangling)
		}
		return 2, nil
	}); err != nil {
		return err
	}

	// dqbatch: report rendering.
	if err := l.rung("dqbatch.render", func(ctx context.Context) (float64, error) {
		var err error
		for i := 0; i < renderCalls && err == nil; i++ {
			call(ctx, "dqbatch.RenderReport", func() { err = dqbatch.RenderReport(io.Discard, res, "json") })
		}
		return renderCalls, err
	}); err != nil {
		return err
	}

	// dqserve: the closed loop, a fixed number of jobs per client over the
	// workload's record file.
	return l.rung("dqserve.job", func(ctx context.Context) (float64, error) {
		staging := filepath.Join(l.dir, fmt.Sprintf("ladder-staging-%t", l.tr != nil))
		s, err := startServer(defaultConfig(staging, l.model))
		if err != nil {
			return 0, err
		}
		var mu sync.Mutex
		closedLoop(ladderJobsClient, time.Time{}, func() {
			jctx, sp := obs.StartSpan(ctx, "dqserve.client_job")
			jt, ok := s.gatedJob(jctx, data, truth, true, l.t)
			sp.End()
			if !ok {
				return
			}
			mu.Lock()
			l.jobs++
			l.queue += jt.queue
			l.run += jt.run
			l.jobLatency += jt.total
			l.jobRecords += jt.records
			mu.Unlock()
		})
		if err := s.stop(); err != nil {
			return 0, err
		}
		if l.jobs == 0 {
			return 0, fmt.Errorf("no ladder job succeeded")
		}
		return float64(l.jobs), nil
	})
}

// decodeRecords decodes every well-formed line into its own record map;
// the decode rungs count the malformed ones.
func decodeRecords(data []byte) ([]dqruntime.Record, error) {
	var recs []dqruntime.Record
	s := dqbatch.NewNDJSONSource(bytes.NewReader(data))
	for {
		r, err := s.Next(make(dqruntime.Record, 8))
		var recErr *dqbatch.RecordError
		switch {
		case err == io.EOF:
			return recs, nil
		case errors.As(err, &recErr):
		case err != nil:
			return nil, err
		default:
			recs = append(recs, r)
		}
	}
}

// callTimes sums the durations of each rung's call spans and each named
// span under the root, from the traced pass.
func callTimes(root obs.Snapshot) (rungs map[string]float64, named map[string]float64) {
	rungs, named = map[string]float64{}, map[string]float64{}
	var walk func(s obs.Snapshot, rung string, depth int)
	walk = func(s obs.Snapshot, rung string, depth int) {
		for _, c := range s.Children {
			r := rung
			if depth == 0 {
				r = c.Name
			} else if depth == 1 {
				rungs[r] += c.DurationMS
			}
			if depth >= 1 {
				named[c.Name] += c.DurationMS
			}
			walk(c, r, depth+1)
		}
	}
	walk(root, "", 0)
	return rungs, named
}

// pathComponent is one per-layer metric on a workload's blocking path,
// converted to ns per validated record.
type pathComponent struct{ layer, metric string }

// workloadPath lists, in product order, the layers each workload's
// end-to-end figure is made of.
func workloadPath(spec workloadSpec) []pathComponent {
	load := []pathComponent{{"cli", "cli.load_enforcer_ms"}}
	spanDecode := []pathComponent{{"dqbatch", "dqbatch.scan_ns_per_rec"}, {"dqbatch", "dqbatch.decode_span_ns_per_rec"}}
	engine := []pathComponent{
		{"dqruntime", "dqruntime.eval_ns_per_rec"},
		{"dqbatch", "dqbatch.engine_overhead_ns_per_rec"},
		{"dqbatch", "dqbatch.render_ms"},
	}
	switch {
	case spec.pipe:
		return slices.Concat(load, []pathComponent{{"dqbatch", "dqbatch.decode_stream_ns_per_rec"}}, engine)
	case spec.cross:
		return slices.Concat(load, []pathComponent{{"dqbatch", "dqbatch.refset_ns_per_key"}}, spanDecode, engine, []pathComponent{
			{"dqruntime", "dqruntime.unique_ns_per_rec"},
			{"dqruntime", "dqruntime.ref_ns_per_rec"},
			{"dqruntime", "dqruntime.cross_merge_ms"},
		})
	case spec.serve:
		// The job server caches the enforcer, so no model load per job.
		return slices.Concat([]pathComponent{{"dqserve", "dqserve.submit_ms"}, {"dqserve", "dqserve.queue_ms"}},
			spanDecode, engine, []pathComponent{{"dqserve", "dqserve.report_ms"}})
	}
	return slices.Concat(load, spanDecode, engine)
}

// traceRun is the --trace 1 run: the untraced end-to-end figure, then the
// ladder three times (untraced warm-up, traced, untraced), then the
// per-layer metrics, a table and a Chrome trace.
func traceRun(ctx context.Context, spec workloadSpec, name string, in *Input, model, dir, bin, outDir string, seed int64, t *tally) (map[string]metric, error) {
	// Untraced end-to-end figure: the workload's own path with tracing off.
	var e2eNs float64
	if !spec.serve {
		b, err := newBatchRun(bin, model, in, spec.pipe, spec.cross)
		if err != nil {
			return nil, err
		}
		var walls []float64
		for i := 0; i < 3; i++ {
			inv, err := b.invoke(ctx, spec.pipe, in.Records, b.records)
			if err == nil {
				err = gate(inv.report, &in.Truth, spec.cross)
			}
			if t.record(err) {
				walls = append(walls, inv.wall)
			}
		}
		if len(walls) == 0 {
			return nil, fmt.Errorf("no untraced invocation succeeded: %s", t.firstErr())
		}
		e2eNs = median(walls) * 1e9 / float64(in.Truth.Records)
	}

	// An untraced warm-up pass grows the heap and fills the page cache, so
	// the traced pass and the untraced pass it is compared with start alike.
	if _, err := runLadder(ctx, nil, in, model, dir, t); err != nil {
		return nil, fmt.Errorf("warm-up ladder: %w", err)
	}
	tr := obs.NewTracer(4)
	traced, err := runLadder(ctx, tr, in, model, dir, t)
	if err != nil {
		return nil, fmt.Errorf("traced ladder: %w", err)
	}
	plain, err := runLadder(ctx, nil, in, model, dir, t)
	if err != nil {
		return nil, fmt.Errorf("untraced ladder: %w", err)
	}
	finished := tr.Finished()
	if len(finished) != 1 {
		return nil, fmt.Errorf("traced ladder recorded %d root spans", len(finished))
	}
	rungMS, named := callTimes(finished[0].Snapshot())
	if spec.serve {
		e2eNs = float64(plain.jobLatency) / float64(plain.jobRecords)
	}

	per := func(rung string) float64 { return rungMS[rung] * 1e6 / plain.costs[rung].units }
	allocs := func(rung string) float64 { return plain.costs[rung].allocs / plain.costs[rung].units }
	allocBytes := func(rung string) float64 { return plain.costs[rung].bytes / plain.costs[rung].units }
	jobs := float64(traced.jobs)
	m := map[string]metric{
		"cli.load_enforcer_ms":                 {per("cli.load_enforcer") / 1e6, "ms"},
		"dqbatch.scan_ns_per_rec":              {per("dqbatch.scan"), "ns/rec"},
		"dqbatch.decode_span_ns_per_rec":       {per("dqbatch.decode_span"), "ns/rec"},
		"dqbatch.decode_span_allocs_per_rec":   {allocs("dqbatch.decode_span"), "allocs/rec"},
		"dqbatch.decode_span_bytes_per_rec":    {allocBytes("dqbatch.decode_span"), "B/rec"},
		"dqbatch.decode_stream_ns_per_rec":     {per("dqbatch.decode_stream"), "ns/rec"},
		"dqbatch.decode_stream_allocs_per_rec": {allocs("dqbatch.decode_stream"), "allocs/rec"},
		"dqruntime.classify_ns_per_cell":       {per("dqruntime.classify"), "ns/cell"},
		"dqruntime.eval_ns_per_rec":            {per("dqruntime.eval"), "ns/rec"},
		"dqbatch.run_w1_ns_per_rec":            {per("dqbatch.run_w1"), "ns/rec"},
		"dqbatch.run_wn_ns_per_rec":            {per("dqbatch.run_wn"), "ns/rec"},
		"dqruntime.unique_ns_per_rec":          {per("dqruntime.unique"), "ns/rec"},
		"dqruntime.ref_ns_per_rec":             {per("dqruntime.ref"), "ns/rec"},
		"dqruntime.cross_merge_ms":             {rungMS["dqruntime.cross_merge"], "ms"},
		"dqbatch.refset_ns_per_key":            {per("dqbatch.refset"), "ns/key"},
		"dqbatch.refset_allocs_per_key":        {allocs("dqbatch.refset"), "allocs/key"},
		"dqbatch.render_ms":                    {per("dqbatch.render") / 1e6, "ms"},
		"dqserve.submit_ms":                    {named["dqserve.submit"] / jobs, "ms"},
		"dqserve.queue_ms":                     {float64(traced.queue) / 1e6 / jobs, "ms"},
		"dqserve.run_ms":                       {float64(traced.run) / 1e6 / jobs, "ms"},
		"dqserve.report_ms":                    {named["dqserve.report"] / jobs, "ms"},
	}
	m["dqbatch.engine_overhead_ns_per_rec"] = metric{m["dqbatch.run_w1_ns_per_rec"].Value - m["dqruntime.eval_ns_per_rec"].Value, "ns/rec"}

	// Each path component in ns per validated record of the workload's
	// own unit of work: a file for batch workloads, a job for serve_jobs.
	// Times in ms are per call, per job or (merge) per data set.
	unitRecs := float64(in.Truth.Records)
	if spec.serve {
		unitRecs = float64(traced.jobRecords) / jobs
	}
	nsPerRec := func(name string) float64 {
		switch v := m[name]; v.Unit {
		case "ms":
			return v.Value * 1e6 / unitRecs
		case "ns/key":
			return v.Value * float64(in.Truth.RefKeys) / unitRecs
		default:
			return v.Value
		}
	}
	var sum float64
	byLayer := map[string]float64{}
	var table strings.Builder
	fmt.Fprintf(&table, "per-layer self time on the %s path (ns per validated record):\n", name)
	for _, c := range workloadPath(spec) {
		ns := nsPerRec(c.metric)
		sum += ns
		byLayer[c.layer] += ns
		fmt.Fprintf(&table, "  %-10s %-38s %12.1f\n", c.layer, c.metric, ns)
	}
	for _, layer := range []string{"cli", "dqbatch", "dqruntime", "dqserve"} {
		if ns, ok := byLayer[layer]; ok {
			fmt.Fprintf(&table, "  layer %-10s %41.1f\n", layer, ns)
		}
	}
	tw, pw := traced.inProcessWall().Seconds(), plain.inProcessWall().Seconds()
	overhead := (tw - pw) / pw * 100
	fmt.Fprintf(&table, "  layers_sum %49.1f\n  untraced end-to-end %40.1f\n  gap (overlap < 0 < queueing) %30.1f\n  trace overhead %%: %.2f (in-process rungs %.3fs traced vs %.3fs untraced)\n",
		sum, e2eNs, e2eNs-sum, overhead, tw, pw)
	fmt.Print(table.String())

	m["layers_sum_ns_per_rec"] = metric{sum, "ns/rec"}
	m["gap_ns_per_rec"] = metric{e2eNs - sum, "ns/rec"}
	m["trace_overhead_pct"] = metric{overhead, "%"}

	tracePath := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTrace(f, finished); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("chrome trace: %s\n", tracePath)
	return m, nil
}
