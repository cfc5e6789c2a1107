package audit

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// appendRecordJSON appends r's trail line to dst: byte for byte what
// json.Marshal(r) produces, without reflection or a fresh buffer per
// record. It reports false for a timestamp json.Marshal refuses (year
// outside 0-9999, zone offset of 24h or more); the caller then defers to
// json.Marshal for the identical error.
func appendRecordJSON(dst []byte, r Record) ([]byte, bool) {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"time":"`...)
	n0 := len(dst)
	dst = r.Time.AppendFormat(dst, time.RFC3339Nano)
	if !strictRFC3339(dst[n0:]) {
		return dst, false
	}
	dst = append(dst, `","actor":`...)
	dst = appendJSONString(dst, r.Actor)
	dst = append(dst, `,"op":`...)
	dst = appendJSONString(dst, r.Op)
	if r.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = appendJSONString(dst, r.Key)
	}
	if r.Owner != "" {
		dst = append(dst, `,"owner":`...)
		dst = appendJSONString(dst, r.Owner)
	}
	if r.Purpose != "" {
		dst = append(dst, `,"purpose":`...)
		dst = appendJSONString(dst, r.Purpose)
	}
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, string(r.Outcome))
	if r.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, r.Detail)
	}
	return append(dst, '}'), true
}

// strictRFC3339 mirrors the checks time.Time.MarshalJSON applies to its
// RFC 3339 rendering: a four-digit year and a zone hour below 24.
func strictRFC3339(b []byte) bool {
	if len(b) < len("2006-01-02T15:04:05Z") || b[4] != '-' {
		return false
	}
	if b[len(b)-1] == 'Z' {
		return true
	}
	c := b[len(b)-len("Z07:00")]
	h := b[len(b)-len("07:00"):]
	return !('0' <= c && c <= '9') && 10*(h[0]-'0')+(h[1]-'0') < 24
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on (its default): <, > and & become \u003c, \u003e
// and \u0026; control bytes become \b, \f, \n, \r, \t or \u00XX; U+2028
// and U+2029 are escaped; invalid UTF-8 becomes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
