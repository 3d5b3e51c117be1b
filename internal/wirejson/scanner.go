package wirejson

import (
	"strconv"
	"strings"
)

// Scanner walks Data, accepting the text an Encoder (and therefore
// encoding/json) emits: keys in declaration order, no whitespace, strings of
// printable ASCII without escapes, numbers in JSON's grammar. The first
// mismatch marks it failed, after which every method is a no-op returning
// zero, so a decoder reads straight through and checks Done once at the end.
// On a mismatch the caller decodes the same bytes with encoding/json, which
// then decides value or error; so an accepted input must decode to the value
// encoding/json would produce (the Fuzz* targets of the packages that build
// decoders from this hold the two against each other).
type Scanner struct {
	Data []byte
	i    int
	bad  bool
}

// Done reports whether the whole input was consumed without a mismatch.
func (s *Scanner) Done() bool { return !s.bad && s.i == len(s.Data) }

// Failed reports whether a mismatch was met.
func (s *Scanner) Failed() bool { return s.bad }

// Lit consumes the literal text l.
func (s *Scanner) Lit(l string) {
	if !s.TryLit(l) {
		s.bad = true
	}
}

// TryLit consumes l if the input continues with it.
func (s *Scanner) TryLit(l string) bool {
	if s.bad || len(s.Data)-s.i < len(l) || string(s.Data[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// Str consumes a string and returns its contents, which alias Data: callers
// copy. Escapes and bytes outside printable ASCII are a mismatch (encoding/json
// would unescape, or replace invalid UTF-8).
func (s *Scanner) Str() []byte {
	start, end := s.StrSpan()
	if s.bad {
		return nil
	}
	return s.Data[start:end]
}

// StrSpan consumes a string as Str does and returns where its contents lie
// in Data, for a caller that copies them later.
func (s *Scanner) StrSpan() (start, end int) {
	if s.bad || s.i >= len(s.Data) || s.Data[s.i] != '"' {
		s.bad = true
		return 0, 0
	}
	for j := s.i + 1; j < len(s.Data); j++ {
		switch c := s.Data[j]; {
		case c == '"':
			start, s.i = s.i+1, j+1
			return start, j
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.bad = true
			return 0, 0
		}
	}
	s.bad = true
	return 0, 0
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.Data) && '0' <= s.Data[s.i] && s.Data[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// mantissa accumulates the significant digits of a decimal literal, those
// from its first non-zero digit on: v holds the first 19 of them (which fit
// a uint64), n counts them all.
type mantissa struct {
	v uint64
	n int
}

// integer consumes the integer part of a JSON number into m: "0", or digits
// not starting with 0. It returns the number of digits.
func (s *Scanner) integer(m *mantissa) int {
	if s.i < len(s.Data) && s.Data[s.i] == '0' {
		s.i++
		return 1
	}
	n := s.mantDigits(m)
	if n == 0 {
		s.bad = true
	}
	return n
}

// mantDigits consumes a run of decimal digits into m and returns its length.
func (s *Scanner) mantDigits(m *mantissa) int {
	start := s.i
	for ; s.i < len(s.Data); s.i++ {
		c := s.Data[s.i]
		if c < '0' || c > '9' {
			break
		}
		if m.n > 0 || c != '0' {
			if m.n < 19 {
				m.v = m.v*10 + uint64(c-'0')
			}
			m.n++
		}
	}
	return s.i - start
}

// Float consumes a JSON number and converts it as encoding/json does, to the
// float64 strconv.ParseFloat returns; a literal out of float64's range is a
// mismatch. The digits are folded into a mantissa as they are checked, so a
// literal without exponent is converted without a second scan: with up to 15
// significant digits by one exact division, with 16 to 19 by Eisel–Lemire
// (eiselLemire). Anything else — an exponent, 20 or more digits, more than 19
// after the point, a case Eisel–Lemire declines — goes to ParseFloat.
func (s *Scanner) Float() float64 {
	if s.bad {
		return 0
	}
	start := s.i
	neg := s.i < len(s.Data) && s.Data[s.i] == '-'
	if neg {
		s.i++
	}
	var m mantissa
	s.integer(&m)
	frac := 0
	if s.i < len(s.Data) && s.Data[s.i] == '.' {
		s.i++
		if frac = s.mantDigits(&m); frac == 0 {
			s.bad = true
		}
	}
	mantEnd := s.i
	if s.i < len(s.Data) && (s.Data[s.i] == 'e' || s.Data[s.i] == 'E') {
		s.i++
		if s.i < len(s.Data) && (s.Data[s.i] == '+' || s.Data[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.bad {
		return 0
	}
	if mantEnd == s.i {
		// Up to 15 digits: mantissa and power of ten are both exact float64s,
		// so one division is the correctly rounded result, as in ParseFloat's
		// own exact case.
		if m.n <= 15 && frac < len(pow10) {
			f := float64(m.v)
			if frac > 0 {
				f /= pow10[frac]
			}
			if neg {
				f = -f
			}
			return f
		}
		if m.n <= 19 {
			if f, ok := eiselLemire(m.v, frac, neg); ok {
				return f
			}
		}
	}
	f, err := strconv.ParseFloat(string(s.Data[start:s.i]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// pow10 holds the powers of ten that are exact float64s.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// Int64 consumes an integer literal of at most 18 digits (more could
// overflow; encoding/json then decides). A fraction or exponent after it
// fails the literal the caller expects next.
func (s *Scanner) Int64() int64 {
	if s.bad {
		return 0
	}
	neg := s.i < len(s.Data) && s.Data[s.i] == '-'
	if neg {
		s.i++
	}
	v := int64(s.Uint64())
	if neg {
		v = -v
	}
	return v
}

// Uint64 consumes an unsigned integer literal of at most 18 digits.
func (s *Scanner) Uint64() uint64 {
	if s.bad {
		return 0
	}
	var m mantissa
	if s.integer(&m) > 18 || s.bad {
		s.bad = true
		return 0
	}
	return m.v
}

// Int consumes an integer that fits the platform's int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// Bool consumes true or false.
func (s *Scanner) Bool() bool {
	if s.TryLit("true") {
		return true
	}
	s.Lit("false")
	return false
}

// ScanStrings consumes a string array or null: nil for null, an empty slice
// for [], as encoding/json decodes them. The strings do not alias Data; they
// share one copy of the array's text, so an array costs two allocations
// however many elements it has (and a retained element retains that copy).
func ScanStrings[T ~string](s *Scanner) []T {
	if s.TryLit(`null`) {
		return nil
	}
	s.Lit(`[`)
	if s.bad || s.TryLit(`]`) {
		return []T{}
	}
	// First pass: check the elements, count them and their bytes.
	first, n, size := s.i, 0, 0
	for {
		size += len(s.Str())
		n++
		if !s.TryLit(`,`) {
			break
		}
	}
	s.Lit(`]`)
	if s.bad {
		return nil
	}
	// Second pass: copy each element to the end of the shared text and slice
	// it from there. The text never moves, having its final capacity.
	end := s.i
	s.i = first
	var text strings.Builder
	text.Grow(size)
	out := make([]T, n)
	for i := range out {
		at := text.Len()
		text.Write(s.Str())
		out[i] = T(text.String()[at:])
		s.TryLit(`,`)
	}
	s.i = end
	return out
}
