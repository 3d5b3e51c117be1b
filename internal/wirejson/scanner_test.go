package wirejson

import (
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

// jsonNumber is JSON's number grammar, which Scanner.Float checks before it
// converts.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkFloat scans lit and holds the result to encoding/json's reading of
// it: accepted exactly when lit is a JSON number ParseFloat converts, and
// then equal to ParseFloat's value bit for bit.
func checkFloat(t *testing.T, lit []byte) {
	t.Helper()
	s := Scanner{Data: lit}
	got := s.Float()
	want, err := strconv.ParseFloat(string(lit), 64)
	wantOK := jsonNumber.Match(lit) && err == nil
	if s.Done() != wantOK {
		t.Fatalf("%q: scanner accepts %v, want %v (ParseFloat: %v)", lit, s.Done(), wantOK, err)
	}
	if wantOK && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: scanned %v (%#x), ParseFloat %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func FuzzScannerFloat(f *testing.F) {
	for _, lit := range []string{"0", "-0", "0.1", "1e-7", "123456789012345", "1234567890123456",
		"0.12345678901234567", "-9007199254740993", "1234567890123456789", "12345678901234567890",
		"1.7976931348623157e308", "1e400", "4.9e-324", "01", "1.", ".5", "-", "1e", "0x10", "Inf"} {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, lit []byte) { checkFloat(t, lit) })
}

// TestFloatLiterals covers the edges of the conversion paths: the 15/16
// and 19/20 significant-digit boundaries, powers of ten, leading and
// trailing zeros, half-way cases, signed zero and the range limits.
func TestFloatLiterals(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "10", "1000000000000000000", "0.0000000000000000001",
		"0.1", "0.01", "1e0", "1e22", "1e23", "1e-19", "1e-20",
		"999999999999999", "9999999999999999", "999999999999999.9", "0.999999999999999", "0.9999999999999999",
		"100000000000000", "1000000000000000", "10000000000000000", "9007199254740992", "9007199254740993",
		"9999999999999999999", "18446744073709551615", "18446744073709551616", "99999999999999999999",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789", "0.12345678901234567890",
		"123456789.0123456789", "0.00000000000000000001234", "1.00000000000000011102230246251565404236316680908203125",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "5e-324", "1e-400", "1.7976931348623159e308",
		"9223372036854775807", "9223372036854775808", "4503599627370497.5", "0.30000000000000004",
	} {
		checkFloat(t, []byte(lit))
		checkFloat(t, []byte("-"+lit))
	}
}

// TestFloatRoundTrip: a million float64s, written as Encoder.Float (and so
// encoding/json) writes them, scan back to the same bits. The mix covers
// every path: whole numbers, usage-like fractions of up to 17 digits,
// values scaled across the fixed-point range, and arbitrary bit patterns
// (mostly exponent form).
func TestFloatRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var e Encoder
	var s Scanner
	check := func(f float64) {
		e.Buf = e.Buf[:0]
		e.Float(f)
		s = Scanner{Data: e.Buf}
		if got := s.Float(); !s.Done() || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%v written as %q scans to %v (done %v)", f, e.Buf, got, s.Done())
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 1e15, 1e16, 1e21, 1e-6, 1e-7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 1<<53 + 2, 0.1, 1.0 / 3} {
		check(f)
		check(-f)
	}
	for i := 0; i < 1_000_000; i++ {
		var f float64
		switch i % 4 {
		case 0:
			f = float64(r.Int63n(1 << 53))
		case 1:
			f = r.Float64()
		case 2:
			f = r.Float64() * math.Pow(10, float64(r.Intn(28)-7))
		default:
			if f = math.Float64frombits(r.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		}
		if r.Intn(2) == 0 {
			f = -f
		}
		check(f)
	}
}

// TestNegPow10Table derives Eisel–Lemire's table: 10^-k times the power of
// two that puts its top bit at bit 127, rounded down.
func TestNegPow10Table(t *testing.T) {
	for k := range negPow10 {
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		shift := den.BitLen() + 127 // 2^shift / 10^k has 128 bits
		if k == 0 {
			shift = 127
		}
		q := new(big.Int).Quo(new(big.Int).Lsh(big.NewInt(1), uint(shift)), den)
		if q.BitLen() != 128 {
			t.Fatalf("1e-%d: %d-bit mantissa", k, q.BitLen())
		}
		hi := new(big.Int).Rsh(q, 64).Uint64()
		lo := new(big.Int).And(q, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		if negPow10[k].hi != hi || negPow10[k].lo != lo {
			t.Errorf("1e-%d: table {%#016x, %#016x}, want {%#016x, %#016x}", k, negPow10[k].hi, negPow10[k].lo, hi, lo)
		}
	}
}

func BenchmarkScannerFloat17(b *testing.B) {
	data := []byte("0.12345678901234567")
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		s := Scanner{Data: data}
		sink += s.Float()
	}
	if sink == 0 {
		b.Fatal("no value")
	}
}
