package dqbatch

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// MmapNDJSONSource streams newline-delimited JSON straight out of a
// read-only byte slice — normally a memory-mapped file. NextSpan slices
// runs of lines out of the mapping with bytes.IndexByte newline scans, so
// no line buffer is filled and no chunk bytes are copied; only the decoded
// cell strings are materialized. It is NDJSONSource's zero-copy twin: same
// record semantics, same chunk boundaries, same error texts, same
// maxLineBytes bound (the golden parity suite pins report-level byte
// equality between the two).
type MmapNDJSONSource struct {
	data []byte
	pos  int
	// line is the 1-based number of the most recently consumed line.
	line int64
}

// NewMmapNDJSONSource wraps an in-memory NDJSON byte slice. The slice is
// read, not copied; the caller keeps it alive (and mapped) until the
// source is drained.
func NewMmapNDJSONSource(data []byte) *MmapNDJSONSource {
	return &MmapNDJSONSource{data: data}
}

// ByteOffset returns the bytes consumed through the end of the most
// recently consumed line — here an exact position in the backing slice.
// Not safe for concurrent use with NextSpan; the engine reads it on the
// reader goroutine.
func (s *MmapNDJSONSource) ByteOffset() int64 { return int64(s.pos) }

// Span is a run of whole input lines sliced out of a source's backing
// store, ready for concurrent decoding. Data covers the lines including
// their newline terminators (the final line of the input may lack one);
// FirstLine is the 1-based input line number of the first line in Data.
type Span struct {
	Data      []byte
	FirstLine int64
}

// SpanSource is a Source whose input can be cut into raw spans cheaply
// and decoded out of order: NextSpan runs on the engine's reader goroutine
// (sequential), while DecodeSpan touches no cursor state and may run on
// any number of goroutines at once. The engine's decode pool uses the pair
// to overlap decoding with evaluation.
type SpanSource interface {
	// NextSpan consumes up to maxLines whole lines and returns them as one
	// span; io.EOF ends the stream and any other error aborts the batch.
	NextSpan(maxLines int) (Span, error)
	// DecodeSpan decodes one span into dst, reporting malformed lines
	// through bad in line order, and returns the rows appended.
	DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int
}

// NextSpan cuts up to maxLines lines out of the mapping — pure newline
// arithmetic, no decoding, so the reader stays far ahead of the decode
// pool.
func (s *MmapNDJSONSource) NextSpan(maxLines int) (Span, error) {
	if s.pos >= len(s.data) {
		return Span{}, io.EOF
	}
	start := s.pos
	first := s.line + 1
	for lines := 0; lines < maxLines && s.pos < len(s.data); lines++ {
		rest := s.data[s.pos:]
		end := bytes.IndexByte(rest, '\n')
		adv := end + 1
		if end < 0 {
			end = len(rest)
			adv = end
		}
		if end > maxLineBytes {
			if s.pos > start {
				// Emit the lines gathered so far; the next call reports the
				// oversized line at its true number.
				break
			}
			return Span{}, fmt.Errorf("dqbatch: reading line %d: %w", s.line+1, bufio.ErrTooLong)
		}
		s.pos += adv
		s.line++
	}
	return Span{Data: s.data[start:s.pos], FirstLine: first}, nil
}

// DecodeSpan decodes one span into dst. Safe for concurrent use across
// spans: it reads only the span's bytes, never the source's cursor.
func (s *MmapNDJSONSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	return decodeNDJSONSpan(sp, dst, bad)
}

// decodeNDJSONSpan decodes every line of sp into dst — fast path first,
// canonical slow path on bail — reporting malformed lines through bad in
// line order. Oversized lines cannot appear here: NextSpan never puts one
// in a span.
func decodeNDJSONSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	data := sp.Data
	line := sp.FirstLine - 1
	n := 0
	var names [][]byte
	for len(data) > 0 {
		var raw []byte
		if j := bytes.IndexByte(data, '\n'); j >= 0 {
			raw, data = data[:j], data[j+1:]
		} else {
			raw, data = data, nil
		}
		line++
		if len(raw) > 0 && raw[len(raw)-1] == '\r' {
			raw = raw[:len(raw)-1]
		}
		if len(trimSpaceBytes(raw)) == 0 {
			continue
		}
		if fastDecodeLine(raw, dst, &names) {
			n++
			continue
		}
		n += slowDecodeLine(raw, line, dst, bad)
	}
	return n
}

// OpenFileSource opens path and returns the fastest Source this platform
// offers for it, plus a closer releasing the file and any mapping. Regular
// non-empty files are memory-mapped when the platform allows: NDJSON gets
// the zero-copy MmapNDJSONSource, CSV a csv.Reader over the mapping
// (quoted newlines rule out raw line splitting, but the read side still
// skips the file-read copies). Pipes, devices, empty files and platforms
// without mmap fall back to the reader-backed sources (NDJSONSource's
// buffered block reader feeds the same span decoder) — behaviour, not just
// output, is identical either way. format is "csv" or "ndjson"; ""
// selects CSV for a .csv extension and NDJSON otherwise, matching the CLI.
func OpenFileSource(path, format string) (Source, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if format == "" {
		if strings.EqualFold(filepath.Ext(path), ".csv") {
			format = "csv"
		} else {
			format = "ndjson"
		}
	}
	src, closer, err := fileSource(f, format)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, closer, nil
}

// fileSource builds the best source for an open file: mmap when f is a
// regular, non-empty, address-space-sized file on an mmap-capable
// platform; a buffered reader otherwise. The returned closer owns f.
func fileSource(f *os.File, format string) (Source, func() error, error) {
	if mmapAvailable {
		if st, err := f.Stat(); err == nil &&
			st.Mode().IsRegular() && st.Size() > 0 && int64(int(st.Size())) == st.Size() {
			if data, unmap, err := mmapFile(f, st.Size()); err == nil {
				closer := func() error {
					err := unmap()
					if cerr := f.Close(); err == nil {
						err = cerr
					}
					return err
				}
				if format == "csv" {
					return NewCSVSource(bytes.NewReader(data)), closer, nil
				}
				return NewMmapNDJSONSource(data), closer, nil
			}
			// Mapping failed (exotic filesystem, address space): the
			// reader-backed source reads the same bytes.
		}
	}
	if format == "csv" {
		return NewCSVSource(f), f.Close, nil
	}
	return NewNDJSONSource(f), f.Close, nil
}
