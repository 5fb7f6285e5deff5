package dqbatch

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Fast NDJSON decoding: the span decoder parses the common record
// shape — a flat JSON object of unescaped strings, numbers and booleans —
// straight out of the span bytes, skipping encoding/json's reflection
// and intermediate map[string]any entirely. Anything unusual (escape
// sequences, invalid UTF-8, null or nested values, duplicate keys, any
// syntax the scanner is not certain about) bails out to the exact
// decodeLine path NDJSONSource.Next uses, so the accept/reject decision
// and every error text stay byte-identical to the canonical decoder.
// FuzzDecodeLine and the golden parity suites pin that equivalence.

// fastDecodeLine decodes one line into dst as the current row. It returns
// false — after rolling back any partially appended cells — when the line
// needs the slow path; true means the row was appended (EndRow called).
// names is a reused scratch of this row's key slices for duplicate-key
// detection; the slices alias raw and die with the call.
func fastDecodeLine(raw []byte, dst *dqruntime.ColumnBatch, names *[][]byte) bool {
	i, n := 0, len(raw)
	skipWS := func() {
		for i < n && asciiSpace(raw[i]) {
			i++
		}
	}
	bail := func() bool {
		dst.AbortRow()
		return false
	}
	*names = (*names)[:0]
	skipWS()
	if i >= n || raw[i] != '{' {
		return bail()
	}
	i++
	skipWS()
	if i < n && raw[i] == '}' {
		// Empty object: a record with no fields, same as the canonical
		// empty map.
		i++
		skipWS()
		if i != n {
			return bail()
		}
		dst.EndRow()
		return true
	}
	for {
		skipWS()
		if i >= n || raw[i] != '"' {
			return bail()
		}
		i++
		keyStart := i
		for i < n && raw[i] != '"' {
			// Escaped, control or non-ASCII key bytes: let encoding/json
			// decode (and validate) them.
			if raw[i] == '\\' || raw[i] < 0x20 || raw[i] >= utf8.RuneSelf {
				return bail()
			}
			i++
		}
		if i >= n {
			return bail()
		}
		key := raw[keyStart:i]
		i++
		for _, seen := range *names {
			if string(seen) == string(key) {
				// Duplicate key: map semantics keep the last value; only the
				// slow path reproduces that.
				return bail()
			}
		}
		*names = append(*names, key)
		skipWS()
		if i >= n || raw[i] != ':' {
			return bail()
		}
		i++
		skipWS()
		if i >= n {
			return bail()
		}
		var val string
		switch c := raw[i]; {
		case c == '"':
			i++
			start := i
			ascii := true
			for i < n && raw[i] != '"' {
				if raw[i] == '\\' || raw[i] < 0x20 {
					return bail()
				}
				if raw[i] >= utf8.RuneSelf {
					ascii = false
				}
				i++
			}
			if i >= n {
				return bail()
			}
			vb := raw[start:i]
			i++
			// encoding/json coerces invalid UTF-8 to U+FFFD; bail so the
			// slow path applies the same coercion.
			if !ascii && !utf8.Valid(vb) {
				return bail()
			}
			val = string(vb)
		case c == 't':
			if n-i < 4 || string(raw[i:i+4]) != "true" {
				return bail()
			}
			val = "true"
			i += 4
		case c == 'f':
			if n-i < 5 || string(raw[i:i+5]) != "false" {
				return bail()
			}
			val = "false"
			i += 5
		case c == '-' || (c >= '0' && c <= '9'):
			tok, rest, ok := scanJSONNumber(raw[i:])
			if !ok {
				return bail()
			}
			i = n - len(rest)
			val, ok = renderNumber(tok)
			if !ok {
				return bail()
			}
		default:
			// null, nested objects/arrays, or garbage: the slow path either
			// produces the canonical "unsupported value type" record error
			// or the canonical decode error.
			return bail()
		}
		dst.SetFieldBytes(key, val)
		skipWS()
		if i >= n {
			return bail()
		}
		if raw[i] == ',' {
			i++
			continue
		}
		if raw[i] != '}' {
			return bail()
		}
		i++
		skipWS()
		if i != n {
			return bail()
		}
		dst.EndRow()
		return true
	}
}

// scanJSONNumber consumes one JSON number token (strict JSON grammar: no
// leading zeros, no bare '.', exponent needs digits) and returns the token
// plus the remaining bytes.
func scanJSONNumber(b []byte) (tok, rest []byte, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	return b[:i], b[i:], true
}

// renderNumber produces the string a JSON number lands in a record as —
// exactly scalarString's FormatFloat(ParseFloat(tok)) round trip. Small
// integer tokens short-circuit: they are their own shortest float64
// rendering, so the token bytes become the cell directly.
func renderNumber(tok []byte) (string, bool) {
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	plain := true
	for _, c := range digits {
		if c < '0' || c > '9' {
			plain = false
			break
		}
	}
	// Up to 15 digits every integer is exactly representable in float64 and
	// FormatFloat('f', -1) prints it back verbatim (JSON already forbids
	// leading zeros). "-0" is the one token where the round trip and the
	// verbatim bytes agree too ("-0" formats as "-0").
	if plain && len(digits) <= 15 {
		return string(tok), true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return "", false
	}
	return strconv.FormatFloat(f, 'f', -1, 64), true
}

// slowDecodeLine is the canonical per-line decode the fast path defers to:
// decodeLine, exactly as NDJSONSource.Next runs it, appending the row to
// dst on success and reporting the decode error through bad otherwise.
// Returns 1 when a row was appended.
func slowDecodeLine(raw []byte, line int64, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	if err := decodeLine(raw, dst.SetField); err != nil {
		dst.AbortRow()
		bad(line, err)
		return 0
	}
	dst.EndRow()
	return 1
}

// decodeLine is the canonical NDJSON record decoder: json.Unmarshal into a
// map, then scalarString per field, handing each field to set in key
// order — so when several fields are unsupported the error always names
// the first of them.
func decodeLine(raw []byte, set func(name, value string)) error {
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		return err
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		str, err := scalarString(obj[k])
		if err != nil {
			return fmt.Errorf("field %q: %w", k, err)
		}
		set(k, str)
	}
	return nil
}
