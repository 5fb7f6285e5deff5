// Race and lifecycle tests for the batch engine: the sharded aggregators
// must hold up under many workers (run these with -race, as
// scripts/check.sh does), and cancellation mid-stream must tear the whole
// pool down without leaking goroutines.
package dqbatch_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	. "github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// generatorSource produces synthetic records forever (or until limit),
// counting how many it has emitted. It never blocks, so the engine's
// cancellation path is what stops the stream.
type generatorSource struct {
	emitted atomic.Int64
	limit   int64 // <= 0 means unbounded
}

func (g *generatorSource) NextBatch(dst *dqruntime.ColumnBatch, max int, _ func(int64, error)) (int, error) {
	for i := 0; i < max; i++ {
		n := g.emitted.Add(1)
		if g.limit > 0 && n > g.limit {
			g.emitted.Add(-1)
			if i == 0 {
				return 0, io.EOF
			}
			return i, nil
		}
		dst.SetField("first_name", "A")
		dst.SetField("last_name", "B")
		dst.SetField("email_address", "a@b.co")
		dst.SetField("overall_evaluation", fmt.Sprintf("%d", n%9-4)) // -4..4: some out of [-3,3]
		dst.SetField("reviewer_confidence", "3")
		dst.EndRow()
	}
	return max, nil
}

func TestRunManyWorkersAggregatesExactly(t *testing.T) {
	v := buildValidator(t)
	const n = 20000
	src := &generatorSource{limit: n}
	res, err := Run(context.Background(), v, src, Options{
		Workers: 16, ChunkSize: 64, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != n {
		t.Fatalf("records = %d, want %d", res.Records, n)
	}
	if res.Passed+res.Failed != n {
		t.Fatalf("passed %d + failed %d != %d", res.Passed, res.Failed, n)
	}
	if res.Failed == 0 {
		t.Fatal("generator emits out-of-range evaluations; some records must fail")
	}
	// Whatever the split, the sharded aggregators must not lose a check.
	var checks int64
	for _, cs := range res.Characteristics {
		checks += cs.Checks
	}
	if checks != 3*n { // completeness + 2 precision checks per record
		t.Fatalf("total checks = %d, want %d", checks, 3*n)
	}
}

func TestRunCancellationMidStreamStopsAndReportsPartial(t *testing.T) {
	v := buildValidator(t)
	src := &generatorSource{} // unbounded
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the pool get going, then pull the plug.
		for src.emitted.Load() < 10000 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	var p Progress
	res, err := Run(ctx, v, CountSource(src, &p), Options{Workers: 8, Registry: obs.NewRegistry()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Records == 0 {
		t.Fatalf("partial result = %+v", res)
	}
	// Progress counts exactly the records that reached the partial report.
	if p.Records() != res.Records {
		t.Fatalf("progress records = %d, partial report records = %d", p.Records(), res.Records)
	}
	if res.Records > src.emitted.Load() {
		t.Fatalf("validated %d records but only %d were emitted", res.Records, src.emitted.Load())
	}
}

func TestRunCancellationLeaksNoGoroutines(t *testing.T) {
	v := buildValidator(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		src := &generatorSource{}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for src.emitted.Load() < 2000 {
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
		}()
		if _, err := Run(ctx, v, src, Options{Workers: 8, Registry: obs.NewRegistry()}); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v", i, err)
		}
		cancel()
	}
	// The pool goroutines exit before Run returns; allow the canceller
	// goroutines a moment to notice and die.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > %d+2 after cancellations\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunSourceErrorAbortsWithPartial(t *testing.T) {
	v := buildValidator(t)
	// 20 good lines, then a scanner-level failure (line too long).
	var b strings.Builder
	for i := 0; i < 20; i++ {
		b.WriteString(`{"first_name":"A","last_name":"B","email_address":"a@b.co","overall_evaluation":"1","reviewer_confidence":"3"}` + "\n")
	}
	b.WriteString(strings.Repeat("x", 2<<20) + "\n")
	res, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(b.String())), Options{
		Workers: 4, Registry: obs.NewRegistry(),
	})
	if err == nil {
		t.Fatal("want a source error")
	}
	if res.Records != 20 {
		t.Fatalf("partial records = %d, want 20", res.Records)
	}
}

// slowSpans is a span source whose DecodeSpan takes a while and counts the
// calls in flight, standing in for a decoder still reading a memory
// mapping when the caller wants to unmap it.
type slowSpans struct {
	*MmapNDJSONSource
	inFlight, late atomic.Int32
	returned       atomic.Bool
}

func (s *slowSpans) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(int64, error)) int {
	if s.returned.Load() {
		s.late.Add(1)
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	time.Sleep(2 * time.Millisecond)
	return s.MmapNDJSONSource.DecodeSpan(sp, dst, bad)
}

// TestRunWaitsForDecoders cancels a run mid-stream and checks Run returned
// only after every decode call finished: none may be in flight, or start,
// once it returns — otherwise a caller unmapping the input right after
// Run would pull the bytes out from under a decoder.
func TestRunWaitsForDecoders(t *testing.T) {
	v := buildValidator(t)
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.WriteString(`{"first_name":"A","last_name":"B","email_address":"a@b.co","overall_evaluation":"1","reviewer_confidence":"3"}` + "\n")
	}
	for i := 0; i < 5; i++ {
		src := &slowSpans{MmapNDJSONSource: NewMmapNDJSONSource([]byte(b.String()))}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := Run(ctx, v, src, Options{Workers: 8, ChunkSize: 16, Registry: obs.NewRegistry()})
		src.returned.Store(true)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: err = %v, want deadline exceeded", i, err)
		}
		if n := src.inFlight.Load(); n != 0 {
			t.Fatalf("run %d: %d DecodeSpan calls still in flight after Run returned", i, n)
		}
		time.Sleep(5 * time.Millisecond)
		if n := src.late.Load(); n != 0 {
			t.Fatalf("run %d: %d DecodeSpan calls started after Run returned", i, n)
		}
	}
}
