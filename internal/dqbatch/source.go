// Package dqbatch validates whole datasets against a DQSR-derived
// validator: where internal/dqruntime checks one web-form record at a
// time, dqbatch streams millions of records from NDJSON or CSV sources
// through a pool of workers and merges per-characteristic statistics
// through sharded aggregators, so neither the input side nor the reduce
// side becomes the bottleneck. It is the dataset-scale counterpart of the
// paper's per-form enforcement loop.
package dqbatch

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Source is a record stream Run and BuildKeySet read. Every source takes
// one of two shapes: a SpanSource (NDJSON) only has raw line spans cut off
// it on the reader goroutine, leaving the decoding to the decode pool; a
// BatchSource (CSV, ColumnSource) cannot be split and decodes its chunks
// inline. A value that is neither is rejected with an error.
type Source interface{}

// RecordError is a recoverable per-record input problem (a malformed
// NDJSON line, a CSV row with the wrong field count). The engine counts
// it under outcome="error" and moves on.
type RecordError struct {
	// Line is the 1-based input file line where the offending record
	// starts (CSV records with quoted multi-line fields span several file
	// lines; the count is file lines, not records).
	Line int64
	// Err is the underlying decode error.
	Err error
}

// Error renders the line and cause.
func (e *RecordError) Error() string { return fmt.Sprintf("record %d: %v", e.Line, e.Err) }

// Unwrap exposes the cause.
func (e *RecordError) Unwrap() error { return e.Err }

// maxLineBytes bounds one NDJSON line; lines beyond it are a hard error
// (bounded memory is part of the contract).
const maxLineBytes = 1 << 20

// NDJSONSource streams newline-delimited JSON objects from any reader —
// stdin, a pipe, a file on a platform without mmap. Values may be strings,
// numbers or booleans; scalars are rendered to the string form a web form
// would deliver (null and nested values are rejected — records are flat
// field→string maps by construction).
//
// It is a SpanSource: NextSpan copies up to maxLines whole lines into a
// pooled buffer, and DecodeSpan decodes them with the same decoder the
// memory-mapped source uses, then recycles the buffer. Chunk boundaries,
// line numbers, byte offsets and the oversized-line error therefore match
// MmapNDJSONSource byte for byte.
type NDJSONSource struct {
	r *bufio.Reader
	// line is the 1-based number of the most recently consumed line;
	// offset the exact input bytes consumed through its terminator.
	line   int64
	offset int64
	// err is the sticky read error (io.EOF at end of input) that ends the
	// stream once the lines read before it are delivered.
	err error
	// row is Next's line buffer; bufs recycles span buffers between
	// NextSpan and DecodeSpan.
	row  []byte
	bufs sync.Pool
}

// NewNDJSONSource wraps a reader of NDJSON records.
func NewNDJSONSource(r io.Reader) *NDJSONSource {
	return NewNDJSONSourceAt(r, 0, 0)
}

// NewNDJSONSourceAt wraps a reader positioned mid-file: the first line read
// is numbered startLine+1 and ByteOffset starts at startOffset, so decode
// errors and checkpoints from a tail read carry true whole-file positions.
// The caller seeks r; the source only continues the numbering.
func NewNDJSONSourceAt(r io.Reader, startLine, startOffset int64) *NDJSONSource {
	return &NDJSONSource{r: bufio.NewReaderSize(r, 64*1024), line: startLine, offset: startOffset}
}

// ByteOffset returns the input bytes consumed through the end of the most
// recently consumed line, terminator included. Not safe for concurrent use
// with NextSpan or Next; the engine reads it on the reader goroutine.
func (s *NDJSONSource) ByteOffset() int64 { return s.offset }

// appendLine appends the next input line, terminator included, to dst.
// The error is sticky: once reading fails (io.EOF at end of input, an
// oversized line, an I/O error) every later call returns it. A line whose
// content exceeds maxLineBytes is reported as bufio.ErrTooLong at its own
// line number and is not consumed, exactly as MmapNDJSONSource reports it.
func (s *NDJSONSource) appendLine(dst []byte) ([]byte, error) {
	if s.err != nil {
		return dst, s.err
	}
	start := len(dst)
	for {
		frag, err := s.r.ReadSlice('\n')
		dst = append(dst, frag...)
		if n := len(dst) - start; n > maxLineBytes && (n > maxLineBytes+1 || dst[len(dst)-1] != '\n') {
			s.err = fmt.Errorf("dqbatch: reading line %d: %w", s.line+1, bufio.ErrTooLong)
			return dst[:start], s.err
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil:
		case io.EOF:
			s.err = io.EOF
			if len(dst) == start {
				return dst, io.EOF
			}
		default:
			s.err = fmt.Errorf("dqbatch: reading line %d: %w", s.line+1, err)
			return dst[:start], s.err
		}
		s.line++
		s.offset += int64(len(dst) - start)
		return dst, nil
	}
}

// NextSpan copies up to maxLines whole lines into a recycled buffer and
// returns them as one span; io.EOF ends the stream. A read error after
// some lines were gathered is held back until the next call, so every
// complete line is decoded first. The span must be passed to DecodeSpan
// exactly once, which returns its buffer to the pool.
func (s *NDJSONSource) NextSpan(maxLines int) (Span, error) {
	buf, _ := s.bufs.Get().([]byte)
	first := s.line + 1
	var err error
	for lines := 0; lines < maxLines; lines++ {
		if buf, err = s.appendLine(buf); err != nil {
			break
		}
	}
	if len(buf) == 0 {
		return Span{}, err
	}
	return Span{Data: buf, FirstLine: first}, nil
}

// DecodeSpan decodes one span from NextSpan into dst and recycles the
// span's buffer: every cell is copied out of it, so nothing aliases it
// afterwards. Safe for concurrent use across spans.
func (s *NDJSONSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	n := decodeNDJSONSpan(sp, dst, bad)
	s.bufs.Put(sp.Data[:0])
	return n
}

// NextBatch decodes up to max input lines into dst — NextSpan and
// DecodeSpan in one call, for callers that want rows without the engine.
// It returns the rows appended; io.EOF ends the stream.
func (s *NDJSONSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	return readChunk(s, dst, max, bad)
}

// Next decodes the next non-blank line into rec through the canonical
// encoding/json decoder — the per-record reference the fast span decoder
// is checked against. A malformed line is a *RecordError.
func (s *NDJSONSource) Next(rec dqruntime.Record) (dqruntime.Record, error) {
	for {
		var err error
		if s.row, err = s.appendLine(s.row[:0]); err != nil {
			return nil, err
		}
		raw := trimLine(s.row)
		if len(trimSpaceBytes(raw)) == 0 {
			continue
		}
		clear(rec)
		if err := decodeLine(raw, func(k, v string) { rec[k] = v }); err != nil {
			return nil, &RecordError{Line: s.line, Err: err}
		}
		return rec, nil
	}
}

// trimLine strips a line's LF or CRLF terminator, as bufio.ScanLines does.
func trimLine(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	if len(b) > 0 && b[len(b)-1] == '\r' {
		b = b[:len(b)-1]
	}
	return b
}

// scalarString renders one JSON value as the string a form field would
// carry.
func scalarString(v any) (string, error) {
	switch t := v.(type) {
	case string:
		return t, nil
	case float64:
		return strconv.FormatFloat(t, 'f', -1, 64), nil
	case bool:
		return strconv.FormatBool(t), nil
	default:
		return "", fmt.Errorf("unsupported value type %T", v)
	}
}

// trimSpaceBytes trims ASCII whitespace without allocating.
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// CSVSource streams CSV rows, taking field names from the header row.
// It reuses the csv.Reader's record storage, so memory stays bounded by
// one row.
type CSVSource struct {
	r      *csv.Reader
	header []string
	// line is the 1-based file line where the most recent record starts —
	// a true file line from csv.Reader.FieldPos, not a record count, so
	// quoted multi-line fields don't skew later diagnostics.
	line int64
	// dupHeader and scratch support NextBatch when header names repeat
	// (map semantics: last value per name wins).
	dupHeader bool
	scratch   dqruntime.Record
}

// NewCSVSource wraps a reader of CSV records whose first row names the
// fields.
func NewCSVSource(r io.Reader) *CSVSource {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // field-count mismatches are per-record errors
	return &CSVSource{r: cr}
}

// ByteOffset returns the input bytes consumed through the most recently
// read record (csv.Reader.InputOffset, so quoting and CRLF are exact). Not
// safe for concurrent use with Next or NextBatch; the engine reads it on
// the reader goroutine.
func (s *CSVSource) ByteOffset() int64 { return s.r.InputOffset() }

// nextRow reads the next data row, consuming the header row first. A
// malformed row is a *RecordError; io.EOF ends the stream and any other
// error aborts it.
func (s *CSVSource) nextRow() ([]string, error) {
	for {
		row, err := s.r.Read()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			if pe, ok := err.(*csv.ParseError); ok {
				return nil, &RecordError{Line: int64(pe.StartLine), Err: err}
			}
			return nil, fmt.Errorf("dqbatch: reading CSV after line %d: %w", s.line, err)
		}
		line, _ := s.r.FieldPos(0)
		s.line = int64(line)
		if s.header == nil {
			s.header = append([]string(nil), row...)
			s.dupHeader = hasDuplicates(s.header)
			continue
		}
		if len(row) != len(s.header) {
			return nil, &RecordError{Line: s.line,
				Err: fmt.Errorf("row has %d fields, header has %d", len(row), len(s.header))}
		}
		return row, nil
	}
}

// Next decodes the next data row into rec.
func (s *CSVSource) Next(rec dqruntime.Record) (dqruntime.Record, error) {
	row, err := s.nextRow()
	if err != nil {
		return nil, err
	}
	clear(rec)
	for i, v := range row {
		rec[s.header[i]] = v
	}
	return rec, nil
}

func hasDuplicates(names []string) bool {
	seen := make(map[string]struct{}, len(names))
	for _, n := range names {
		if _, ok := seen[n]; ok {
			return true
		}
		seen[n] = struct{}{}
	}
	return false
}
