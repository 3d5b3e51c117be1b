// Package wirejson holds the primitives of the hand-written JSON codecs: an
// append encoder that writes exactly the bytes encoding/json writes, and a
// strict scanner that accepts exactly those bytes and reports a mismatch on
// anything else, so that its caller can hand the same input to encoding/json.
// internal/protocol builds the codecs of the hot /deliver message kinds from
// them and api/v1 those of the /v1 list bodies; encoding/json stays the
// reference both are fuzzed against.
package wirejson

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendString appends s as a JSON string, as encoding/json writes it
// (HTML-sensitive characters, U+2028/9 and invalid UTF-8 escaped). Printable
// ASCII is copied; anything else takes json.Marshal's escaping.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Encoder appends to Buf. NonFinite records that a NaN or an infinity was
// met: encoding/json refuses those, so the caller discards Buf and lets
// encoding/json produce the error.
type Encoder struct {
	Buf       []byte
	NonFinite bool
}

func (e *Encoder) Lit(s string)  { e.Buf = append(e.Buf, s...) }
func (e *Encoder) Str(s string)  { e.Buf = AppendString(e.Buf, s) }
func (e *Encoder) Int(v int64)   { e.Buf = strconv.AppendInt(e.Buf, v, 10) }
func (e *Encoder) Uint(v uint64) { e.Buf = strconv.AppendUint(e.Buf, v, 10) }
func (e *Encoder) Bool(v bool)   { e.Buf = strconv.AppendBool(e.Buf, v) }

// Float writes f as encoding/json's float64 encoder does: shortest
// representation that round-trips, exponent form below 1e-6 and from 1e21,
// a two-digit exponent's leading zero dropped.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.NonFinite = true
		return
	}
	// Capacities, reservations and idle usage are whole numbers; their digits
	// are the integer's (exact below 2^53), without the shortest-float search.
	if -1e15 < f && f < 1e15 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			e.Int(i)
			return
		}
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		e.Buf = strconv.AppendFloat(e.Buf, f, 'e', -1, 64)
		if n := len(e.Buf); n >= 4 && e.Buf[n-4] == 'e' && (e.Buf[n-3] == '-' || e.Buf[n-3] == '+') && e.Buf[n-2] == '0' {
			e.Buf[n-2] = e.Buf[n-1]
			e.Buf = e.Buf[:n-1]
		}
		return
	}
	e.Buf = strconv.AppendFloat(e.Buf, f, 'f', -1, 64)
}

// AppendStrings writes a string array, null for a nil one.
func AppendStrings[T ~string](e *Encoder, v []T) {
	if v == nil {
		e.Lit(`null`)
		return
	}
	e.Lit(`[`)
	for i, s := range v {
		if i > 0 {
			e.Lit(`,`)
		}
		e.Str(string(s))
	}
	e.Lit(`]`)
}
