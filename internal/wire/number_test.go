package wire

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numberBoundaries are the numbers where a conversion is most likely to
// part from strconv: signed zeros, exponents past the float64 range
// both ways, 19- and 20-digit mantissas, halfway cases, the subnormal
// and overflow edges, long runs of zeros, exponents of 20 or more
// digits, and texts that are not JSON numbers or only start with one.
var numberBoundaries = []string{
	"0", "-0", "0.0", "-0.0", "0e-999", "-0e999", "0e99999999999999999999",
	"1e999", "-1e999", "1e-400", "-1e-400", "1e308", "1e309", "1e-324", "1e-323",
	"1234567890123456789", "12345678901234567890", "-1234567890123456789e-5",
	"12345678901234567890e-5", "1234567890123456789.5", "0.12345678901234567891",
	"9999999999999999999", "99999999999999999999", "18446744073709551615", "18446744073709551616",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"-9007199254740993", "9007199254740993.0000000001", "900719925474099.3e1",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"2.225073858507201136057409796709131975934819546351645648e-308",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"-1.7976931348623159e308", "179769313486231580793728971405301e276",
	"0.000000000000000000000000000000000000000000000000000000000000001",
	"100000000000000000000000000000000000000000000000000000000000000",
	"1000000000000000000000000000000000000000000000000000000000000001",
	"0.1000000000000000000000000000000000000000000000000000000000000001",
	"00000000000000000000000000000000000000000000000000000000000000001",
	"1e00000000000000000000001", "1e-00000000000000000000001",
	"1e18446744073709551617", "1e-18446744073709551617", "0.0e99999999999999999999",
	"1e22", "1e23", "9007199254740991e22", "9007199254740993e-22", "1e-22", "1e-23",
	"0.1", "0.2", "0.3", "0.30000000000000004", "3.141592653589793", "123.456",
	"89255.0e-22", "7.038531e-26", "8.98846567431158e307", "1.448997445238699",
	"1E+2", "1e-2", "1E5", "-12.5e+3", "1.", "1e", "1e+", "1e-", "-", "--1", "01", "-01",
	".5", "+1", "1.e5", "1.5,", "2]", "1e5x", "0x10", "Infinity", "NaN", "",
}

// checkNumber holds the one-pass conversion to the reference it
// replaces, numberLen then strconv.ParseFloat, and the hour to
// strconv.ParseInt: the same length, the same float64 bits, and the
// same verdict on every input.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	n := numberLen(b)
	var d decimal
	if got := scanNumber(b, &d); got != n {
		t.Fatalf("%q: scanNumber reads %d bytes, numberLen %d", b, got, n)
	}
	if n == 0 {
		return
	}
	text := b[:n]
	want, err := strconv.ParseFloat(string(text), 64)
	wantOK := err == nil && !math.IsInf(want, 0)
	if got, ok := d.float(text); math.Float64bits(got) != math.Float64bits(want) || ok != wantOK {
		t.Fatalf("%q: got %v (%#x, finite %v), strconv %v (%#x, finite %v)",
			text, got, math.Float64bits(got), ok, want, math.Float64bits(want), wantOK)
	}
	wantI, err := strconv.ParseInt(string(text), 10, 64)
	wantIOK := err == nil && int64(int(wantI)) == wantI
	if got, ok := d.int(); ok != wantIOK || ok && int64(got) != wantI {
		t.Fatalf("%q: int %d (%v), strconv %d (%v)", text, got, ok, wantI, wantIOK)
	}
}

// numberPath names the path that converts d: "exact", "eisel-lemire"
// or "strconv".
func numberPath(d *decimal) string {
	switch {
	case d.trunc:
		return "strconv"
	case d.mant < 1<<53 && -22 <= d.exp && d.exp <= 22:
		return "exact"
	}
	if _, ok := eiselLemire(d.mant, d.exp, d.neg); ok {
		return "eisel-lemire"
	}
	return "strconv"
}

func TestNumberBoundaries(t *testing.T) {
	for _, s := range numberBoundaries {
		checkNumber(t, []byte(s))
	}
}

// TestNumberMatchesStrconv generates millions of numbers the way
// encoders and agents write them and requires every conversion to match
// strconv bit for bit. Each of the three paths must be taken.
func TestNumberMatchesStrconv(t *testing.T) {
	count := 3_000_000
	if raceEnabled || testing.Short() {
		count = 200_000
	}
	rng := rand.New(rand.NewSource(30))
	paths := map[string]int{}
	var d decimal
	for i := 0; i < count; i++ {
		b := []byte(randomNumber(rng))
		checkNumber(t, b)
		if n := scanNumber(b, &d); n > 0 {
			paths[numberPath(&d)]++
		}
	}
	t.Logf("%d numbers: %v", count, paths)
	for _, p := range []string{"exact", "eisel-lemire", "strconv"} {
		if paths[p] == 0 {
			t.Errorf("no number took the %s path", p)
		}
	}
}

// randomNumber writes one number: a random float64's shortest 'g', 'e'
// and 'f' forms or a form at a random precision, a SMART-like integer
// or short decimal, a value between two float64s, or a free-form digit
// string with leading zeros, long mantissas and wide exponents.
// Sometimes a sign or trailing bytes ride along.
func randomNumber(rng *rand.Rand) string {
	var s string
	switch k := rng.Intn(12); k {
	case 0, 1, 2:
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = rng.NormFloat64()
		}
		s = formatRandom(rng, x)
	case 3, 4:
		s = formatRandom(rng, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(44)-22)))
	case 5, 6:
		s = strconv.Itoa(rng.Intn(1 << uint(rng.Intn(40))))
		if rng.Intn(2) == 0 {
			s += "." + strconv.Itoa(rng.Intn(10000))
		}
	case 7:
		s = halfway(rng)
	case 8:
		// An integer between 2^53 and 2^64, where odd values fall between
		// two float64s.
		s = strconv.FormatUint(1<<53+rng.Uint64()>>uint(rng.Intn(12)), 10)
	default:
		s = freeDigits(rng)
	}
	if rng.Intn(2) == 0 && !strings.HasPrefix(s, "-") {
		s = "-" + s
	}
	if rng.Intn(8) == 0 {
		s += []string{",", "]", "}", " ", "e", "e+", ".", "x", "E-", "0"}[rng.Intn(10)]
	}
	return s
}

func formatRandom(rng *rand.Rand, x float64) string {
	prec := -1
	if rng.Intn(2) == 0 {
		prec = rng.Intn(25)
	}
	switch rng.Intn(3) {
	case 0:
		return strconv.FormatFloat(x, 'g', prec, 64)
	case 1:
		return strconv.FormatFloat(x, 'e', prec, 64)
	}
	if math.Abs(x) > 1e30 || prec > 20 {
		prec = rng.Intn(20)
	}
	return strconv.FormatFloat(x, 'f', prec, 64)
}

// halfway writes, exactly, the midpoint between two adjacent float64s
// near 2^e for a random e in [-30, 70]: (2m+1) × 2^(e-53) for a random
// 53-bit m. Integer midpoints of up to 19 digits are the halfway cases
// Eisel–Lemire itself must refuse.
func halfway(rng *rand.Rand) string {
	m := new(big.Int).SetUint64((1<<52 | rng.Uint64()>>12) << 1)
	m.Add(m, big.NewInt(1))
	e := rng.Intn(101) - 30 - 53
	if e >= 0 {
		return m.Lsh(m, uint(e)).String()
	}
	// m / 2^k = m × 5^k / 10^k.
	k := -e
	m.Mul(m, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(k)), nil))
	s := m.String()
	if len(s) <= k {
		s = strings.Repeat("0", k-len(s)+1) + s
	}
	return s[:len(s)-k] + "." + s[len(s)-k:]
}

// freeDigits writes a digit string no encoder would: a random mantissa
// of up to 40 digits with zeros padded around it, a random point, and a
// random exponent of up to 22 digits.
func freeDigits(rng *rand.Rand) string {
	var b strings.Builder
	digits := func(n int, zero bool) {
		for i := 0; i < n; i++ {
			if zero {
				b.WriteByte('0')
			} else {
				b.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
	}
	if rng.Intn(2) == 0 {
		b.WriteString("0.")
		digits(rng.Intn(30), true)
	}
	b.WriteByte(byte('1' + rng.Intn(9)))
	digits(rng.Intn(40), false)
	digits(rng.Intn(30), true)
	if rng.Intn(3) == 0 && !strings.Contains(b.String(), ".") {
		b.WriteByte('.')
		digits(1+rng.Intn(25), rng.Intn(2) == 0)
	}
	if rng.Intn(2) == 0 {
		b.WriteString([]string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)])
		if rng.Intn(10) == 0 {
			digits(rng.Intn(20), true)
		}
		b.WriteString(strconv.Itoa(rng.Intn(1 << uint(rng.Intn(20)))))
	}
	return b.String()
}

// TestPowersOfTen checks the lazily built table against entries strconv
// documents and against powers a float64 holds exactly.
func TestPowersOfTen(t *testing.T) {
	tab := powersOfTen()
	for _, c := range []struct {
		q      int
		hi, lo uint64
	}{
		{0, 0x8000000000000000, 0},
		{1, 0xA000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
	} {
		if got := tab[c.q-minPow10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d: %#x, want {%#x, %#x}", c.q, got, c.lo, c.hi)
		}
	}
	for q, e := range tab {
		if e[1]>>63 != 1 {
			t.Fatalf("10^%d: %#x is not normalized", q+minPow10, e)
		}
	}
}

// FuzzNumber holds the one-pass conversion to numberLen plus strconv on
// arbitrary bytes.
func FuzzNumber(f *testing.F) {
	for _, s := range numberBoundaries {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkNumber(t, b) })
}
