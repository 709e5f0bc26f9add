package smart

import (
	"fmt"
	"strings"
)

// DeviceClass distinguishes the device populations of a heterogeneous
// fleet. The paper's analysis is HDD-only; SSDs reuse the same 12
// attribute slots but with different semantics (wear-leveling instead of
// read errors, program/erase cycles instead of reallocated sectors) and
// different failure dynamics (gradual wear-out vs. sudden death), so
// every class must be normalized, clustered and modeled separately.
//
// HDD is the zero value: every pre-existing profile, snapshot, WAL
// record and wire frame that predates device classes decodes as an HDD
// fleet unchanged.
type DeviceClass uint8

const (
	// HDD is a rotational drive: the paper's population and the zero value.
	HDD DeviceClass = iota
	// SSD is a flash drive with wear-driven attribute semantics.
	SSD

	NumClasses // number of device classes
)

// Valid reports whether c names a known device class.
func (c DeviceClass) Valid() bool { return c < NumClasses }

// String returns the canonical lowercase class name.
func (c DeviceClass) String() string {
	switch c {
	case HDD:
		return "hdd"
	case SSD:
		return "ssd"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass resolves a class name. The empty string parses as HDD so
// wire formats and JSON bodies can omit the field for the legacy
// population.
func ParseClass(s string) (DeviceClass, error) {
	switch s {
	case "", "hdd", "HDD":
		return HDD, nil
	case "ssd", "SSD":
		return SSD, nil
	}
	// The error holds a copy, so s does not escape and a caller may pass
	// a conversion of borrowed bytes without allocating.
	return 0, fmt.Errorf("smart: unknown device class %q", strings.Clone(s))
}

// Classes returns every device class in enum order.
func Classes() []DeviceClass {
	out := make([]DeviceClass, NumClasses)
	for i := range out {
		out[i] = DeviceClass(i)
	}
	return out
}

// ssdInfos reinterprets the 12 attribute slots for flash devices. The
// slot positions (and therefore Values layout, wire encodings and the
// Eq. (1) machinery) are shared with Table I; only the semantics differ:
// the read/write health slots carry wear and block-retirement health,
// the two raw slots carry program/erase cycles and used reserved blocks,
// and the environmental slots keep their HDD meaning.
var ssdInfos = [NumAttrs]Info{
	{RRER, "WLC", "Wear Leveling Count", ReadWrite, HealthValue},
	{RSC, "RNBC", "Retired NAND Block Count", ReadWrite, HealthValue},
	{SER, "PFC", "Program Fail Count", ReadWrite, HealthValue},
	{RUE, "RUE", "Reported Uncorrectable Errors", ReadWrite, HealthValue},
	{HFW, "RBR", "Reserved Blocks Remaining", ReadWrite, HealthValue},
	{HER, "EFC", "Erase Fail Count", ReadWrite, HealthValue},
	{CPSC, "UECC", "Uncorrectable ECC Errors", ReadWrite, HealthValue},
	{SUT, "SSDR", "SATA Downshift Rate", ReadWrite, HealthValue},
	{RawRSC, "R-PEC", "Program Erase Cycles", ReadWrite, RawData},
	{RawCPSC, "R-RBU", "Reserved Blocks Used", ReadWrite, RawData},
	{POH, "POH", "Power On Hours", Environmental, HealthValue},
	{TC, "TC", "Temperature Celsius", Environmental, HealthValue},
}

// InfoFor returns the descriptor of attribute a under device class c.
// For HDD it is identical to InfoOf.
func InfoFor(c DeviceClass, a Attr) Info {
	if a < 0 || a >= NumAttrs {
		panic(fmt.Sprintf("smart: invalid attribute %d", int(a)))
	}
	if c == SSD {
		return ssdInfos[a]
	}
	return infos[a]
}

// ssdRawBounds is the admission ceiling of the SSD raw slots. Unlike
// HDD sector counters (bounded only by the six-byte field), program/
// erase cycles and reserved-block counts are physically bounded: no
// flash cell survives millions of P/E cycles and no drive carries a
// billion spare blocks. A tighter ceiling keeps one corrupt raw reading
// from stretching the SSD min-max span by orders of magnitude.
const ssdRawBounds = 5e6

// BoundsFor returns the plausible vendor-space range [lo, hi] of
// attribute a under device class c. Health-value slots are one-byte
// scores under every class; raw slots are class-dependent (see
// ssdRawBounds). BoundsFor(HDD, a) equals Bounds(a).
func BoundsFor(c DeviceClass, a Attr) (lo, hi float64) {
	if InfoFor(c, a).ValueKind == HealthValue {
		return 0, 255
	}
	if c == SSD {
		return 0, ssdRawBounds
	}
	return 0, 1e15
}

// InBoundsFor reports whether x is a plausible vendor-space value for
// attribute a under class c. NaN and infinities are never in bounds.
func InBoundsFor(c DeviceClass, a Attr, x float64) bool {
	lo, hi := BoundsFor(c, a)
	return x >= lo && x <= hi // NaN fails both comparisons
}
