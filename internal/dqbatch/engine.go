package dqbatch

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// Options tunes a batch run. The zero value is ready to use.
type Options struct {
	// Workers is the validation goroutine count; 0 means GOMAXPROCS. The
	// decode pool runs half as many goroutines, rounded up.
	Workers int
	// ChunkSize is how many input lines (NDJSON) or records (CSV, column
	// sources) travel per work item; chunking amortizes channel handoff to
	// nothing per record. 0 means 256.
	ChunkSize int
	// MaxExemplars caps retained failures per characteristic; 0 means 3,
	// negative means none.
	MaxExemplars int
	// MaxDecodeErrors caps the decode errors retained (with line numbers)
	// in Result.DecodeErrors; 0 means 10, negative means none. Malformed
	// counts every skipped record regardless of the cap.
	MaxDecodeErrors int
	// Registry receives dqbatch_records_total{outcome} and
	// dqbatch_batch_seconds; nil means obs.Default().
	Registry *obs.Registry
	// Quality, when non-nil, receives the batch's merged per-characteristic
	// attribution: after the shards reduce, each characteristic's exact
	// count/failure/sum/min/max block is folded into the series labeled
	// {characteristic, context} in one Merge call. The shards never touch
	// the shared set, so the hot path is unchanged and the race-tested
	// exact aggregation stays exact.
	Quality *obs.SeriesSet
	// Context labels the Quality series (dataset, tenant, pipeline stage);
	// empty means "batch".
	Context string
	// CrossRecord are dataset-level stateful checks (uniqueness,
	// referential consistency, timeliness). Each check mints one private
	// state per worker; the engine merges them after the pool drains — the
	// same shard-then-reduce shape as the per-characteristic statistics —
	// and appends one CrossFinding per check to Result.CrossRecords.
	CrossRecord []dqruntime.StatefulCheck
}

// limits resolves the zero-value defaults of the sizing options.
func (o Options) limits() (workers, chunkSize, maxExemplars, maxDecode int) {
	workers, chunkSize, maxExemplars, maxDecode = o.Workers, o.ChunkSize, o.MaxExemplars, o.MaxDecodeErrors
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunkSize <= 0 {
		chunkSize = defaultChunkSize
	}
	if maxExemplars == 0 {
		maxExemplars = 3
	} else if maxExemplars < 0 {
		maxExemplars = 0
	}
	if maxDecode == 0 {
		maxDecode = 10
	} else if maxDecode < 0 {
		maxDecode = 0
	}
	return workers, chunkSize, maxExemplars, maxDecode
}

// DecodeError is one retained malformed-input diagnostic.
type DecodeError struct {
	// Line is the 1-based input file line where the offending record
	// starts.
	Line int64 `json:"line"`
	// Error is the decode failure text.
	Error string `json:"error"`
}

// Result summarizes one batch run. All scores and latencies are merged
// across workers; Characteristics is sorted by characteristic name.
type Result struct {
	// Records counts successfully decoded records; Passed/Failed split
	// them by overall validation outcome. Malformed counts input records
	// that failed to decode and were skipped.
	Records   int64 `json:"records"`
	Passed    int64 `json:"passed"`
	Failed    int64 `json:"failed"`
	Malformed int64 `json:"malformed"`
	// DecodeErrors detail the first malformed records (line numbers and
	// causes), capped by Options.MaxDecodeErrors. On cancellation the
	// partial result keeps whatever was captured so far.
	DecodeErrors []DecodeError `json:"decode_errors,omitempty"`
	// Workers is the pool size the batch ran with.
	Workers int `json:"workers"`
	// Seconds is the wall-clock batch duration; RecordsPerSec the
	// resulting throughput.
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	// LatencyP50/LatencyP99 are per-record validation latency percentiles
	// in seconds, from a bounded reservoir of per-chunk samples (chunk
	// validation time over its rows); 0 when no record was validated.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// Characteristics is the per-characteristic roll-up.
	Characteristics []CharacteristicStats `json:"characteristics"`
	// CrossRecords are the dataset-level findings of Options.CrossRecord,
	// in check declaration order.
	CrossRecords []dqruntime.CrossFinding `json:"cross_records,omitempty"`
	// Duration is Seconds as a time.Duration, for callers doing math.
	Duration time.Duration `json:"-"`
}

// chunk is one unit of work: a recycled columnar batch of up to ChunkSize
// rows travelling reader → decode pool → sequencer → eval worker. idx is
// its position in the input, from which the sequencer restores order;
// span holds the raw lines a SpanSource's chunk still has to decode; end
// is the source byte offset after the chunk; bads buffers malformed-line
// diagnostics until the sequencer replays them in line order; base is the
// ordinal of the first row, assigned by the sequencer.
type chunk struct {
	idx, base, end int64
	n              int
	span           Span
	batch          *dqruntime.ColumnBatch
	bads           []lineErr
}

// lineErr is one malformed line captured while decoding, held until the
// sequencer replays it single-threaded.
type lineErr struct {
	line int64
	err  error
}

func (c *chunk) bad(line int64, err error) { c.bads = append(c.bads, lineErr{line: line, err: err}) }

// chunkPool recycles chunks (and the column buffers inside them) across
// Runs, so repeated batches — benchmark iterations, a server validating
// dataset after dataset — stop paying the pool-priming allocations every
// time.
var chunkPool sync.Pool

func getChunk() *chunk {
	c, _ := chunkPool.Get().(*chunk)
	if c == nil {
		return &chunk{batch: &dqruntime.ColumnBatch{}}
	}
	return c
}

// defaultChunkSize is the records (or input lines) per chunk when
// Options.ChunkSize is 0.
const defaultChunkSize = 256

// sampleCap bounds each worker's latency reservoir.
const sampleCap = 4096

// batchBuckets are dqbatch_batch_seconds bounds: batches run longer than
// request latencies, so the tail extends into minutes.
var batchBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Run streams records from src through one goroutine graph, whatever the
// source:
//
//	reader → decode pool → sequencer → eval workers
//
// The reader cuts raw line spans off a SpanSource, or decodes a
// BatchSource's chunks inline; the decode pool parses spans into column
// batches concurrently (and passes inline-decoded chunks through); the
// sequencer restores input order, assigns record ordinals, replays
// malformed-line diagnostics and publishes progress; each eval worker
// scores whole columns per chunk with v and folds the verdicts into its
// own shard. One free list bounds memory: at most 2×workers+2 plus
// 2×decoders chunks of ChunkSize records exist, never more with input
// size. Reports are byte-identical across worker counts because ordinals,
// decode-error order and the exact score sums do not depend on
// scheduling.
//
// Run honors ctx: on cancellation the reader stops, eval workers finish
// the chunks already handed to them, and the partial Result comes back
// with ctx's error. Run returns only after every goroutine it started has
// exited, so the caller may release the source's memory (unmap a file)
// as soon as it returns.
func Run(ctx context.Context, v *dqruntime.Validator, src Source, opts Options) (*Result, error) {
	workers, chunkSize, maxExemplars, maxDecode := opts.limits()
	src, prog := unwrapProgress(src)
	ssrc, _ := src.(SpanSource)
	bsrc, _ := src.(BatchSource)
	if ssrc == nil && bsrc == nil {
		return nil, notSource(src)
	}
	off, _ := src.(Offsetter)
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	const recordsHelp = "Batch-validated records, by outcome (pass, fail, error=malformed input)"
	passC := reg.Counter("dqbatch_records_total", recordsHelp, obs.Labels{"outcome": "pass"})
	failC := reg.Counter("dqbatch_records_total", recordsHelp, obs.Labels{"outcome": "fail"})
	errC := reg.Counter("dqbatch_records_total", recordsHelp, obs.Labels{"outcome": "error"})
	batchH := reg.Histogram("dqbatch_batch_seconds", "Wall-clock batch validation duration", batchBuckets, nil)

	_, span := obs.StartSpan(ctx, "dqbatch.run")
	start := time.Now()

	shards := make([]*shard, workers)
	for i := range shards {
		shards[i] = newShard()
	}
	// crossStates[c][w] is check c's private state for worker w; workers
	// write only their own column, and the reduce folds each row
	// single-threaded, so cross-record checks ride the shard-then-merge
	// discipline without new synchronization.
	crossStates := make([][]dqruntime.CheckState, len(opts.CrossRecord))
	for i, sc := range opts.CrossRecord {
		crossStates[i] = sc.NewStates(workers, maxExemplars)
	}

	decoders := (workers + 1) / 2
	// Every chunk in flight came from free and goes back to it, so sends to
	// free never block.
	free := make(chan *chunk, 2*workers+2+2*decoders)
	for i := 0; i < cap(free); i++ {
		free <- getChunk()
	}
	// Each stage may run one chunk per goroutine of the next stage ahead;
	// decoded also absorbs out-of-order chunks while the sequencer waits
	// for the next one in line.
	spans := make(chan *chunk, decoders)
	decoded := make(chan *chunk, decoders+workers)
	work := make(chan *chunk, workers)
	// stages tracks every goroutine below; its Wait is the happens-before
	// edge for readErr (the reader's) and the onBad state (the
	// sequencer's).
	var stages sync.WaitGroup
	var readErr error
	var malformed int64
	var decodeErrs []DecodeError

	stages.Add(1)
	go func() { // reader
		defer stages.Done()
		defer close(spans)
		var idx int64
		for {
			var c *chunk
			select {
			case c = <-free:
			case <-ctx.Done():
				return
			}
			c.batch.Reset()
			c.bads = c.bads[:0]
			c.n, c.span = 0, Span{}
			var err error
			if ssrc != nil {
				c.span, err = ssrc.NextSpan(chunkSize)
			} else {
				c.n, err = bsrc.NextBatch(c.batch, chunkSize, c.bad)
			}
			if off != nil {
				c.end = off.ByteOffset()
			}
			if c.n > 0 || len(c.span.Data) > 0 || len(c.bads) > 0 {
				c.idx = idx
				idx++
				select {
				case spans <- c:
				case <-ctx.Done():
					return
				}
			} else {
				free <- c
			}
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	}()

	var decWg sync.WaitGroup
	for i := 0; i < decoders; i++ {
		decWg.Add(1)
		go func() {
			defer decWg.Done()
			for c := range spans {
				if len(c.span.Data) > 0 {
					c.n = ssrc.DecodeSpan(c.span, c.batch, c.bad)
					c.span = Span{}
				}
				select {
				case decoded <- c:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	stages.Add(1)
	go func() {
		defer stages.Done()
		decWg.Wait()
		close(decoded)
	}()

	stages.Add(1)
	go func() { // sequencer
		defer stages.Done()
		defer close(work)
		pending := make(map[int64]*chunk, decoders+workers)
		var next, ordinal int64
		for c := range decoded {
			pending[c.idx] = c
			for {
				c, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				for _, b := range c.bads {
					malformed++
					errC.Inc()
					if len(decodeErrs) < maxDecode {
						decodeErrs = append(decodeErrs, DecodeError{Line: b.line, Error: b.err.Error()})
					}
				}
				// Read the chunk before handing it off: a worker recycles it.
				n, end := c.n, c.end
				if n > 0 {
					c.base = ordinal + 1
					select {
					case work <- c:
					case <-ctx.Done():
						return
					}
					ordinal += int64(n)
				} else {
					free <- c
				}
				// Progress counts exactly the records handed to a worker,
				// which finishes every chunk it receives.
				if prog != nil {
					prog.records.Add(int64(n))
					if off != nil {
						prog.bytes.Store(end)
					}
				}
			}
		}
	}()

	for i := 0; i < workers; i++ {
		sh := shards[i]
		wi := i
		stages.Add(1)
		go func() {
			defer stages.Done()
			rep := &dqruntime.BatchReport{}
			for c := range work {
				t0 := time.Now()
				v.ValidateBatch(c.batch, rep)
				// One amortized latency sample per chunk.
				sh.sample(time.Since(t0).Seconds()/float64(c.n), sampleCap)
				for _, states := range crossStates {
					states[wi].ObserveBatch(c.base, c.batch)
				}
				pass, fail := sh.observeBatch(c.base, rep, maxExemplars)
				passC.Add(pass)
				failC.Add(fail)
				free <- c
			}
		}()
	}
	stages.Wait()
	// Idle chunks go back to the cross-run pool; chunks stranded in the
	// graph by a cancellation simply retire.
	for len(free) > 0 {
		chunkPool.Put(<-free)
	}

	dur := time.Since(start)
	batchH.Observe(dur.Seconds())

	res := &Result{
		Malformed:    malformed,
		DecodeErrors: decodeErrs,
		Workers:      workers,
		Seconds:      dur.Seconds(),
		Duration:     dur,
	}
	samples := res.tally(shards, crossStates, maxExemplars)
	if res.Seconds > 0 {
		res.RecordsPerSec = float64(res.Records) / res.Seconds
	}
	sort.Float64s(samples)
	res.LatencyP50 = percentile(samples, 50)
	res.LatencyP99 = percentile(samples, 99)

	if opts.Quality != nil {
		ctxLabel := opts.Context
		if ctxLabel == "" {
			ctxLabel = "batch"
		}
		for _, cs := range res.Characteristics {
			opts.Quality.Series(obs.Labels{
				"characteristic": string(cs.Characteristic),
				"context":        ctxLabel,
			}).Merge(uint64(cs.Checks), uint64(cs.Checks-cs.Passed),
				cs.SumScore, cs.MinScore, cs.MaxScore)
		}
		// Each cross-record finding is one dataset-level measurement of its
		// characteristic: one check execution with the finding's score.
		for _, f := range res.CrossRecords {
			var failed uint64
			if !f.Passed {
				failed = 1
			}
			opts.Quality.Series(obs.Labels{
				"characteristic": string(f.Characteristic),
				"context":        ctxLabel,
			}).Merge(1, failed, f.Score, f.Score, f.Score)
		}
	}

	span.SetAttr("records", int(res.Records))
	span.SetAttr("workers", workers)
	if res.Failed > 0 {
		span.SetAttr("failed", int(res.Failed))
	}
	span.End()

	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, readErr
}

// tally folds the per-worker shards and cross-record states into res —
// record counts, per-characteristic statistics, findings — and returns the
// pooled latency samples. Cross-record states reduce in worker-index
// order; each state's Merge is order-independent in effect, so any worker
// count and any chunk assignment produce the same findings.
func (res *Result) tally(shards []*shard, crossStates [][]dqruntime.CheckState, maxExemplars int) []float64 {
	var samples []float64
	res.Characteristics, samples = mergeShards(shards, maxExemplars)
	for _, sh := range shards {
		res.Records += sh.records
		res.Passed += sh.passed
		res.Failed += sh.failed
	}
	for _, states := range crossStates {
		merged := states[0]
		for _, o := range states[1:] {
			merged.Merge(o)
		}
		res.CrossRecords = append(res.CrossRecords, merged.Finding())
	}
	return samples
}

// percentile returns the p-th percentile of an ascending sample set; 0
// when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteText renders the result as a human-readable report.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "batch: %d records in %s (%.0f records/sec, %d workers)\n",
		r.Records, r.Duration.Round(time.Millisecond), r.RecordsPerSec, r.Workers)
	fmt.Fprintf(w, "  passed %d, failed %d, malformed %d\n", r.Passed, r.Failed, r.Malformed)
	if len(r.DecodeErrors) > 0 {
		fmt.Fprintf(w, "  decode errors (%d of %d malformed):\n", len(r.DecodeErrors), r.Malformed)
		for _, de := range r.DecodeErrors {
			fmt.Fprintf(w, "      line %d: %s\n", de.Line, de.Error)
		}
	}
	if r.LatencyP50 > 0 {
		fmt.Fprintf(w, "  per-record latency p50 %s, p99 %s\n",
			time.Duration(r.LatencyP50*float64(time.Second)).Round(time.Nanosecond),
			time.Duration(r.LatencyP99*float64(time.Second)).Round(time.Nanosecond))
	}
	for _, cs := range r.Characteristics {
		fmt.Fprintf(w, "  %-18s %d/%d checks passed, min %.2f, mean %.3f\n",
			cs.Characteristic, cs.Passed, cs.Checks, cs.MinScore, cs.MeanScore)
		for _, ex := range cs.Exemplars {
			fmt.Fprintf(w, "      record %d: %s", ex.Record, ex.Check)
			for _, d := range ex.Details {
				fmt.Fprintf(w, " — %s", d)
			}
			fmt.Fprintln(w)
		}
	}
	for _, f := range r.CrossRecords {
		verdict := "passed"
		if !f.Passed {
			verdict = fmt.Sprintf("%d violations", f.Violations)
		}
		approx := ""
		if f.Approximate {
			approx = " (approximate)"
		}
		fmt.Fprintf(w, "  %-18s %s: %s over %d records, score %.3f%s\n",
			f.Characteristic, f.Check, verdict, f.Records, f.Score, approx)
		for _, d := range f.Details {
			fmt.Fprintf(w, "      %s\n", d)
		}
	}
}
