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
	if s.bad || s.i >= len(s.Data) || s.Data[s.i] != '"' {
		s.bad = true
		return nil
	}
	for j := s.i + 1; j < len(s.Data); j++ {
		switch c := s.Data[j]; {
		case c == '"':
			tok := s.Data[s.i+1 : j]
			s.i = j + 1
			return tok
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.Data) && '0' <= s.Data[s.i] && s.Data[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// integer consumes the integer part of a JSON number: "0", or digits not
// starting with 0.
func (s *Scanner) integer() {
	if s.i < len(s.Data) && s.Data[s.i] == '0' {
		s.i++
	} else if s.digits() == 0 {
		s.bad = true
	}
}

// Float consumes a JSON number and converts it as encoding/json does, with
// strconv.ParseFloat; a literal out of float64's range is a mismatch.
func (s *Scanner) Float() float64 {
	if s.bad {
		return 0
	}
	start := s.i
	neg := s.i < len(s.Data) && s.Data[s.i] == '-'
	if neg {
		s.i++
	}
	mantStart := s.i
	s.integer()
	frac := 0
	if s.i < len(s.Data) && s.Data[s.i] == '.' {
		s.i++
		if frac = s.digits(); frac == 0 {
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
	// Up to 15 digits and no exponent: mantissa and power of ten are both
	// exact float64s, so one division is the correctly rounded result — the
	// case ParseFloat also short-cuts, minus its re-scan of the literal.
	if mantEnd == s.i && mantEnd-mantStart <= 15 {
		var mant uint64
		for _, c := range s.Data[mantStart:mantEnd] {
			if c != '.' {
				mant = mant*10 + uint64(c-'0')
			}
		}
		f := float64(mant)
		if frac > 0 {
			f /= pow10[frac]
		}
		if neg {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(s.Data[start:s.i]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

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
	start := s.i
	s.integer()
	if s.bad || s.i-start > 18 {
		s.bad = true
		return 0
	}
	var v uint64
	for _, c := range s.Data[start:s.i] {
		v = v*10 + uint64(c-'0')
	}
	return v
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
