package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// A JSON number converts in the pass that finds its end: scanNumber
// keeps the first 19 significant digits and the decimal exponent, and
// float turns them into the float64 strconv.ParseFloat returns for the
// same text. A product of two exact float64s (Clinger's fast path)
// decides a mantissa below 2^53 with an exponent within ±22, and
// Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
// 2021, the algorithm strconv itself uses) decides nearly every other
// value. What neither can decide goes to strconv: more than 19
// significant digits, a subnormal or overflowing result, and a halfway
// case the 128-bit product cannot settle. Every value is therefore bit
// for bit strconv's, and so is every record check that reads it.

// decimal is a JSON number as scanNumber reads it: ±mant × 10^exp.
type decimal struct {
	mant   uint64 // the first 19 significant digits
	exp    int
	digits int // significant digits, those past the 19th included
	neg    bool
	// trunc reports a nonzero digit past the 19th, which mant dropped.
	trunc bool
	// frac reports a fraction or an exponent part.
	frac bool
}

// maxMantDigits is how many significant digits a uint64 mantissa holds
// for any digits (10^19 - 1 < 2^64).
const maxMantDigits = 19

// scanNumber reads the longest JSON number at the start of b into d and
// returns its length, 0 (with d untouched) when there is none. It
// accepts exactly what numberLen accepts.
func scanNumber(b []byte, d *decimal) int {
	var (
		mant        uint64
		exp, digits int
		trunc, frac bool
	)
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if digits < maxMantDigits {
				mant = mant*10 + uint64(b[i]-'0')
			} else {
				exp++
				trunc = trunc || b[i] != '0'
			}
			digits++
		}
	default:
		return 0
	}
	if i+1 < len(b) && b[i] == '.' && isDigit(b[i+1]) {
		frac = true
		for i++; i < len(b) && isDigit(b[i]); i++ {
			switch {
			case digits == 0 && b[i] == '0':
				// A leading zero only moves the point.
				exp--
				continue
			case digits < maxMantDigits:
				mant = mant*10 + uint64(b[i]-'0')
				exp--
			default:
				trunc = trunc || b[i] != '0'
			}
			digits++
		}
	}
	if i+1 < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		eneg := b[j] == '-'
		if eneg || b[j] == '+' {
			j++
		}
		if j < len(b) && isDigit(b[j]) {
			frac = true
			e := 0
			for ; j < len(b) && isDigit(b[j]); j++ {
				// Past 10,000 the value is ±Inf or ±0 whatever the digits
				// say; saturating, as strconv does, keeps e from wrapping.
				if e < 10000 {
					e = e*10 + int(b[j]-'0')
				}
			}
			if eneg {
				e = -e
			}
			exp += e
			i = j
		}
	}
	*d = decimal{mant: mant, exp: exp, digits: digits, neg: neg, trunc: trunc, frac: frac}
	return i
}

// float returns the number as a float64 and whether that is finite and
// strconv.ParseFloat parses it without error; text is the number's
// bytes, which strconv reads when the fast paths cannot decide.
func (d *decimal) float(text []byte) (float64, bool) {
	if !d.trunc {
		if d.mant < 1<<53 && -22 <= d.exp && d.exp <= 22 {
			// Both operands are exact, so the one rounding is IEEE's.
			f := float64(d.mant)
			if d.neg {
				f = -f
			}
			if d.exp < 0 {
				return f / exactPow10[-d.exp], true
			}
			return f * exactPow10[d.exp], true
		}
		if f, ok := eiselLemire(d.mant, d.exp, d.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	return f, err == nil && !math.IsInf(f, 0)
}

// int returns the number as an int, and false where strconv.ParseInt or
// the conversion to int would fail: a fraction or an exponent part, or a
// value outside the range.
func (d *decimal) int() (int, bool) {
	if d.frac || d.digits > maxMantDigits {
		return 0, false
	}
	var n int64
	switch {
	case d.neg && d.mant <= 1<<63:
		n = int64(-d.mant)
	case !d.neg && d.mant <= math.MaxInt64:
		n = int64(d.mant)
	default:
		return 0, false
	}
	if int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire converts ±man × 10^exp10 to the nearest float64, and
// reports false where the 128-bit product cannot decide the rounding or
// the result is not a normal float64. It follows strconv's own
// implementation step for step.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-minPow10]

	// Normalize the mantissa; 217706/2^16 approximates log2(10) closely
	// enough over the table's range to give each power's binary exponent.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The top 64 bits of the product, widened to 128 only when the
	// truncated low bits could carry into the rounding.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits, then round to 53; an exact halfway product is
	// ambiguous, since the table's truncation hid the bits that decide.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (subnormal) wraps past 0x7FE (infinite) here.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// minPow10 and maxPow10 bound the powers of ten eiselLemire reads: past
// them a 19-digit mantissa gives zero or an infinity.
const (
	minPow10 = -348
	maxPow10 = 347
)

var (
	pow10Once  sync.Once
	pow10Table [maxPow10 - minPow10 + 1][2]uint64
)

// powersOfTen returns, for each 10^q from 10^minPow10 to 10^maxPow10,
// the top 128 bits of its binary expansion rounded down, as {low, high}
// words. The table is filled on first use, so a binary that never
// decodes a JSON number pays nothing for it; it is a package array
// rather than a heap object, so it adds nothing to the live heap.
func powersOfTen() *[maxPow10 - minPow10 + 1][2]uint64 {
	pow10Once.Do(buildPowersOfTen)
	return &pow10Table
}

func buildPowersOfTen() {
	t := &pow10Table
	five, p, x := big.NewInt(5), big.NewInt(1), new(big.Int)
	// 10^q = 5^q × 2^q: the mantissa is 5^q's leading bits.
	for q := 0; q <= maxPow10; q++ {
		t[q-minPow10] = top128(x, p)
		p.Mul(p, five)
	}
	// 10^-n = 2^-n / 5^n: divide a power of two long enough for a 128-bit
	// quotient (5^n has L bits, so 2^(L+127) / 5^n lies in [2^127, 2^128)).
	one := big.NewInt(1)
	p.SetInt64(1)
	for q := -1; q >= minPow10; q-- {
		p.Mul(p, five)
		x.Lsh(one, uint(p.BitLen()+127))
		t[q-minPow10] = top128(x, x.Quo(x, p))
	}
}

// top128 returns the leading 128 bits of x > 0 (shifted up when x is
// shorter) as {low, high} words, using tmp as scratch.
func top128(tmp, x *big.Int) [2]uint64 {
	if s := x.BitLen() - 128; s > 0 {
		tmp.Rsh(x, uint(s))
	} else {
		tmp.Lsh(x, uint(-s))
	}
	var buf [16]byte
	tmp.FillBytes(buf[:])
	return [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
}
