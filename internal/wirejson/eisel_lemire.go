package wirejson

import (
	"math"
	"math/bits"
)

// eiselLemire returns man × 10^-frac as the nearest float64, by the
// Eisel–Lemire algorithm (D. Lemire, "Number Parsing at a Gigabyte per
// Second", Software: Practice and Experience, 2021), the step
// strconv.ParseFloat also takes first. It covers the literals Scanner.Float
// meets, 0 <= frac <= 19, with one table row per power; ok is false where
// the algorithm cannot decide the rounding, and the caller then asks
// ParseFloat.
func eiselLemire(man uint64, frac int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if frac < 0 || frac >= len(negPow10) {
		return 0, false
	}
	exp10 := -frac
	pow := &negPow10[frac]

	// Normalize the mantissa; estimate the binary exponent (217706 / 2^16
	// approximates log2(10)).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The high 64 bits of the product with the truncated power decide the
	// result unless its low bits are all ones: then the power's low half
	// joins in, and if that is still ambiguous the algorithm gives up.
	hi, lo := bits.Mul64(man, pow.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow.lo)
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits; an exact half-way case cannot be rounded from them.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round half to even down to 53 bits.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal, or out of range
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// negPow10[k] is 10^-k as a 128-bit mantissa, rounded down and normalized so
// that its top bit is set (TestNegPow10Table derives it with math/big).
var negPow10 = [20]struct{ hi, lo uint64 }{
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
}
