package trace

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendEvent appends e to dst as one JSONL line: exactly the bytes
// json.Marshal(e) produces, followed by '\n' (what json.Encoder.Encode
// writes). It walks Event's fields in declaration order with their tags'
// names and omitempty rules, so the stream stays byte-identical to the
// reflective encoder's while encoding into a caller-owned buffer without
// allocating. A NaN or infinite float fails as encoding/json fails — with a
// *json.UnsupportedValueError of the same text — and leaves dst unchanged.
//
// Adding a field to Event means adding it here in the same position;
// TestAppendEventMatchesEncodingJSON and FuzzAppendEvent compare the two
// encoders on every field.
func appendEvent(dst []byte, e *Event) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, string(e.Kind))
	if e.Phase != "" {
		dst = append(dst, `,"phase":`...)
		dst = appendString(dst, string(e.Phase))
	}
	if e.Algo != "" {
		dst = append(dst, `,"algo":`...)
		dst = appendString(dst, e.Algo)
	}
	dst = append(dst, `,"q":`...)
	dst = strconv.AppendInt(dst, int64(e.Query), 10)
	if e.Config != "" {
		dst = append(dst, `,"cfg":`...)
		dst = appendString(dst, e.Config)
	}
	var err error
	if e.Cost != 0 {
		dst = append(dst, `,"cost":`...)
		if dst, err = appendFloat(dst, e.Cost); err != nil {
			return dst[:start], err
		}
	}
	if e.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if e.Derived {
		dst = append(dst, `,"derived":true`...)
	}
	if e.Value != 0 {
		dst = append(dst, `,"value":`...)
		if dst, err = appendFloat(dst, e.Value); err != nil {
			return dst[:start], err
		}
	}
	dst = appendInt(dst, `,"used":`, e.Used)
	dst = appendInt(dst, `,"ep":`, e.Episode)
	dst = appendInt(dst, `,"action":`, e.Action)
	dst = appendInt(dst, `,"inflight":`, e.Inflight)
	dst = appendInt(dst, `,"refunded":`, e.Refunded)
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendString(dst, e.Detail)
	}
	return append(dst, '}', '\n'), nil
}

// appendInt appends an omitempty int member: nothing when v is 0, else the
// key (with its leading comma and trailing colon) and v.
func appendInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in 'f' form unless |f| is below 1e-6 or
// at least 1e21, where it switches to 'e' with a one-digit negative
// exponent unpadded ("1e-7", not "1e-07"). NaN and ±Inf have no JSON form.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// encoding/json's own *json.UnsupportedValueError for the value.
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// htmlSafe reports the ASCII bytes encoding/json copies into a string
// verbatim under its default HTML-safe escaping: everything printable
// except the quote, the backslash and <, >, &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does by
// default: the short escapes for the quote, the backslash and \b \f \n \r
// \t; \u00XX for the other control bytes and for <, >, &; \ufffd for each
// byte of invalid UTF-8; and \u2028, \u2029 for the two JavaScript line
// separators.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
