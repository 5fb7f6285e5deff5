package dqbatch

import "sync/atomic"

// Offsetter is a source that knows its record-aligned input byte offset.
// Both NDJSON sources and CSVSource implement it; the offset advances only
// on whole consumed lines or records, which makes it a valid checkpoint
// position.
type Offsetter interface {
	ByteOffset() int64
}

// Progress publishes a running batch's position for concurrent readers:
// the records handed to the eval workers and, when the source is an
// Offsetter, the input byte offset those records end at. Run writes it
// from its in-order stage, so a cancelled run's partial Result.Records
// equals Records() exactly and the offset is record-aligned. Any goroutine
// (a job server's status endpoint, a checkpoint ticker) may read at any
// time.
type Progress struct {
	records atomic.Int64
	bytes   atomic.Int64
}

// Records returns how many decoded records have reached the eval workers
// (malformed skipped records are not counted).
func (p *Progress) Records() int64 { return p.records.Load() }

// Bytes returns the input byte offset the counted records end at; 0 when
// the source is not an Offsetter.
func (p *Progress) Bytes() int64 { return p.bytes.Load() }

// CountSource attaches p to src: a Run over the returned source publishes
// its progress through p.
func CountSource(src Source, p *Progress) Source {
	return &countedSource{src: src, p: p}
}

type countedSource struct {
	src Source
	p   *Progress
}

// unwrapProgress splits a CountSource wrapper into the source it wraps and
// its Progress; other sources come back as they are, with a nil Progress.
func unwrapProgress(src Source) (Source, *Progress) {
	if c, ok := src.(*countedSource); ok {
		return c.src, c.p
	}
	return src, nil
}
