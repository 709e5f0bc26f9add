package wire

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"disksig/internal/fleet"
	"disksig/internal/quality"
	"disksig/internal/smart"
)

// The JSON ingest body is {"records": [record, ...]}, where a record is
// {"serial": string, "hour": integer, "class": string, "values": [...]}
// and values holds one number per attribute in Table I order, null for
// a value missing at the source (JSON cannot carry NaN). An absent or
// empty class means HDD, so pre-class agents keep working; an unknown
// one quarantines the record, as a typo'd value must not slip through
// where a typo'd field name is refused. A value past float64's range,
// like 1e999, parses to ±Inf and quarantines its record instead of
// being silently coerced. The scanner below reads exactly that
// schema in one pass, without reflection or per-record allocation, and
// accepts what encoding/json decoding into the schema's structs (with
// unknown fields disallowed) accepts:
//
//   - field names match case-insensitively, by bytes.EqualFold, so
//     "Serial" and "ſerial" both name the serial;
//   - strings unescape the same way: invalid UTF-8 and unpaired
//     surrogates become U+FFFD;
//   - a value may be a number, a quoted number or null;
//   - any field may be null, and so may a record and the whole body.
//
// It rejects two things encoding/json lets through: data after the
// top-level value, which json.Decoder never reads, and a field repeated
// in one object (after case folding), which encoding/json resolves
// last-wins or, for a repeated records array, merges element by element.

// jsonRecord is one record as the scanner read it. serial and class
// alias the body or the scanner's scratch buffer until the next record.
type jsonRecord struct {
	serial []byte
	class  []byte
	hour   int
	nvals  int
	values smart.Values
	bad    []badValue
}

// badValue is a value that does not parse to a finite float64.
type badValue struct {
	attr int
	text string
}

// Record fields, in the order their names are tried.
const (
	fieldSerial = iota
	fieldHour
	fieldClass
	fieldValues
	numFields
)

var (
	fieldNames = [numFields][]byte{[]byte("serial"), []byte("hour"), []byte("class"), []byte("values")}
	recordsKey = []byte("records")
	bodyHead   = []byte(`{"records":[`)
	bodyTail   = []byte(`]}`)
)

// jsonScanner walks one JSON ingest body.
type jsonScanner struct {
	b []byte
	i int
	// parse selects whether values are parsed into floats (decoding) or
	// only checked for syntax (splitting).
	parse bool
	// scratch holds the current record's strings that needed rewriting.
	scratch []byte
	rec     jsonRecord
}

// scan reads body, calling emit for each record in order with its
// fields in s.rec and its bytes verbatim; an error from emit stops the
// scan. It returns a *FrameError (MalformedRow) for a body that is not
// the ingest schema, for data after the top-level value and for a
// repeated field.
func (s *jsonScanner) scan(body []byte, parse bool, emit func(raw []byte) error) error {
	s.b, s.i, s.parse = body, 0, parse
	defer func() { s.b = nil }()
	s.ws()
	if !s.null() {
		if !s.next('{') {
			return s.expected("an object or null")
		}
		if !s.next('}') {
			if err := s.records(emit); err != nil {
				return err
			}
		}
	}
	if s.ws(); s.i != len(s.b) {
		return malformed("json: trailing data after the top-level value at offset %d", s.i)
	}
	return nil
}

// records reads the members of the top-level object after its '{'.
func (s *jsonScanner) records(emit func(raw []byte) error) error {
	for seen := false; ; seen = true {
		key, at, err := s.key()
		if err != nil {
			return err
		}
		if !bytes.EqualFold(key, recordsKey) {
			return malformed("json: unknown field %q at offset %d", key, at)
		}
		if seen {
			return malformed("json: repeated field %q at offset %d", key, at)
		}
		if s.ws(); !s.null() {
			if !s.next('[') {
				return s.expected("a records array or null")
			}
			if !s.next(']') {
				for {
					s.ws()
					start := s.i
					if err := s.record(); err != nil {
						return err
					}
					if err := emit(s.b[start:s.i]); err != nil {
						return err
					}
					if s.next(']') {
						break
					}
					if !s.next(',') {
						return s.expected("',' or ']'")
					}
				}
			}
		}
		if s.next('}') {
			return nil
		}
		if !s.next(',') {
			return s.expected("',' or '}'")
		}
	}
}

// record reads one record into s.rec.
func (s *jsonScanner) record() error {
	r := &s.rec
	r.serial, r.class, r.hour, r.nvals, r.bad = nil, nil, 0, 0, r.bad[:0]
	s.scratch = s.scratch[:0]
	if s.null() {
		return nil
	}
	if !s.next('{') {
		return s.expected("a record object or null")
	}
	if s.next('}') {
		return nil
	}
	var seen uint8
	for {
		key, at, err := s.key()
		if err != nil {
			return err
		}
		f := 0
		for f < numFields && !bytes.EqualFold(key, fieldNames[f]) {
			f++
		}
		if f == numFields {
			return malformed("json: unknown field %q at offset %d", key, at)
		}
		if seen&(1<<f) != 0 {
			return malformed("json: repeated field %q at offset %d", key, at)
		}
		seen |= 1 << f
		if s.ws(); !s.null() {
			switch f {
			case fieldSerial:
				r.serial, err = s.str("a serial string or null")
			case fieldClass:
				r.class, err = s.str("a class string or null")
			case fieldHour:
				r.hour, err = s.hour()
			case fieldValues:
				err = s.values()
			}
			if err != nil {
				return err
			}
		}
		if s.next('}') {
			return nil
		}
		if !s.next(',') {
			return s.expected("',' or '}'")
		}
	}
}

// hour reads an integer hour; a fraction, an exponent or a value past
// the int range is refused, as encoding/json refuses it for an int.
func (s *jsonScanner) hour() (int, error) {
	at := s.i
	var d decimal
	n := scanNumber(s.b[at:], &d)
	if n == 0 {
		return 0, s.expected("an integer hour or null")
	}
	s.i += n
	h, ok := d.int()
	if !ok {
		return 0, malformed("json: hour %s at offset %d is not an int", s.b[at:s.i], at)
	}
	return h, nil
}

// values reads the values array: each element is null (NaN), a number
// or a quoted number. Only the first smart.NumAttrs elements are kept;
// the count is what the record check judges. A number converts in the
// pass that scans it when the scanner parses; a split only checks its
// syntax.
func (s *jsonScanner) values() error {
	r := &s.rec
	if !s.next('[') {
		return s.expected("a values array or null")
	}
	if s.next(']') {
		return nil
	}
	for {
		s.ws()
		a, at := r.nvals, s.i
		r.nvals++
		var t []byte
		var d decimal
		switch {
		case s.null():
			if a < int(smart.NumAttrs) {
				r.values[a] = math.NaN()
			}
		case s.i < len(s.b) && s.b[s.i] == '"':
			q, err := s.str("")
			if err != nil {
				return err
			}
			if len(q) == 0 || s.numberLen(q, &d) != len(q) {
				return malformed("json: value %q at offset %d is not a number", q, at)
			}
			t = q
		default:
			n := s.numberLen(s.b[s.i:], &d)
			if n == 0 {
				return s.expected("a number, a quoted number or null")
			}
			t = s.b[s.i : s.i+n]
			s.i += n
		}
		if t != nil && s.parse && a < int(smart.NumAttrs) {
			x, ok := d.float(t)
			if !ok {
				r.bad = append(r.bad, badValue{attr: a, text: string(t)})
			}
			r.values[a] = x
		}
		if s.next(']') {
			return nil
		}
		if !s.next(',') {
			return s.expected("',' or ']'")
		}
	}
}

// numberLen is the length of the JSON number at the start of b, 0 when
// there is none; when the scanner parses, d receives its digits too.
func (s *jsonScanner) numberLen(b []byte, d *decimal) int {
	if s.parse {
		return scanNumber(b, d)
	}
	return numberLen(b)
}

// key reads an object key and its ':', returning the unescaped key and
// its offset.
func (s *jsonScanner) key() ([]byte, int, error) {
	s.ws()
	at := s.i
	k, err := s.str("an object key")
	if err != nil {
		return nil, at, err
	}
	if !s.next(':') {
		return nil, at, s.expected("':' after an object key")
	}
	return k, at, nil
}

// str reads a string and returns its unescaped bytes: a slice of the
// body when nothing needs rewriting, of the scratch buffer otherwise.
func (s *jsonScanner) str(want string) ([]byte, error) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, s.expected(want)
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return s.unescape(start, i)
		}
	}
	s.i = len(s.b)
	return nil, s.expected("a closing '\"'")
}

// unescape finishes a string whose byte at i needs rewriting into the
// scratch buffer, the way encoding/json unquotes: escapes resolve, and
// invalid UTF-8 and unpaired surrogates become U+FFFD. The buffer only
// grows within a record, so earlier strings of the record stay valid.
func (s *jsonScanner) unescape(start, i int) ([]byte, error) {
	from := len(s.scratch)
	s.scratch = append(s.scratch, s.b[start:i]...)
	for i < len(s.b) {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.scratch[from:], nil
		case c == '\\':
			r, n := escape(s.b[i:])
			if n == 0 {
				s.i = i
				return nil, s.expected("a valid escape")
			}
			s.scratch = utf8.AppendRune(s.scratch, r)
			i += n
		case c < ' ':
			s.i = i
			return nil, s.expected("a string character")
		case c < utf8.RuneSelf:
			s.scratch = append(s.scratch, c)
			i++
		default:
			r, n := utf8.DecodeRune(s.b[i:])
			s.scratch = utf8.AppendRune(s.scratch, r)
			i += n
		}
	}
	s.i = i
	return nil, s.expected("a closing '\"'")
}

// escape decodes the escape at the start of b into a rune and its
// length, n == 0 when it is invalid. A high-surrogate \u escape followed
// by a low-surrogate one is a single rune; any other surrogate is
// U+FFFD, and whatever follows it is left for the next call.
func escape(b []byte) (r rune, n int) {
	if len(b) < 2 {
		return 0, 0
	}
	if k := strings.IndexByte("\"\\/bfnrt", b[1]); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), 2
	}
	r = hex4(b)
	switch {
	case r < 0:
		return 0, 0
	case !utf16.IsSurrogate(r):
		return r, 6
	}
	if dec := utf16.DecodeRune(r, hex4(b[6:])); dec != utf8.RuneError {
		return dec, 12
	}
	return utf8.RuneError, 6
}

// hex4 reads the \uXXXX escape at the start of b, -1 when there is none.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// numberLen returns the length of the longest JSON number at the start
// of b, 0 when there is none.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i+1 < len(b) && b[i] == '.' && isDigit(b[i+1]) {
		i = digits(b, i+2)
	}
	if i+1 < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if b[j] == '+' || b[j] == '-' {
			j++
		}
		if j < len(b) && isDigit(b[j]) {
			i = digits(b, j+1)
		}
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// null consumes a null literal at the cursor.
func (s *jsonScanner) null() bool {
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// next skips whitespace and consumes c if it comes next.
func (s *jsonScanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *jsonScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// expected reports that the input at the cursor is not what the schema
// holds there.
func (s *jsonScanner) expected(want string) error {
	if s.i >= len(s.b) {
		return malformed("json: unexpected end of input, want %s", want)
	}
	return malformed("json: unexpected %q at offset %d, want %s", s.b[s.i:s.i+1], s.i, want)
}

// DecodeJSON parses one JSON ingest body into observations, sharing the
// observation and serial buffers with Decode (the slice is valid until
// the next call). Each record gets the JSON format's
// record checks, in this order: a serial longer than MaxSerialLen, an
// empty serial, an unknown class, a value count other than
// smart.NumAttrs, and values that are not finite float64s (every one
// is noted). A failing record is quarantined into rep once; null
// values decode as NaN, the store's to judge. A body
// that is not the ingest schema — a syntax or type error, an unknown or
// repeated field, data after the top-level value — returns a
// *FrameError and ingests nothing; rep is untouched in that case.
func (d *Decoder) DecodeJSON(body []byte, rep *quality.Report) ([]fleet.Observation, error) {
	d.obs = d.obs[:0]
	d.held = d.held[:0]
	d.serials.Reset()
	records, quarantined := 0, 0
	err := d.js.scan(body, true, func([]byte) error {
		if !d.keepJSON(records, &d.js.rec) {
			quarantined++
		}
		records++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, iss := range d.held {
		rep.Note(iss, quality.Config{})
	}
	rep.AddRows(quarantined, quarantined, 0)
	d.serials.Assign(d.obs)
	return d.obs, nil
}

// keepJSON applies the record checks to record i, appending it to the
// observations or holding its issues for rep, and reports whether it
// was kept.
func (d *Decoder) keepJSON(i int, r *jsonRecord) bool {
	if len(r.serial) > MaxSerialLen {
		// The binary frame's check, so that no format admits a serial the
		// WAL refuses.
		d.held = append(d.held, quality.Issue{
			Kind: quality.BadField, Field: "serial",
			Detail: fmt.Sprintf("record %d serial length %d outside [1, %d]", i, len(r.serial), MaxSerialLen),
		})
		return false
	}
	if len(r.serial) == 0 {
		d.held = append(d.held, quality.Issue{
			Kind: quality.BadField, Field: "serial",
			Detail: fmt.Sprintf("record %d has no serial", i),
		})
		return false
	}
	class, classErr := smart.ParseClass(string(r.class))
	if classErr == nil && r.nvals == int(smart.NumAttrs) && len(r.bad) == 0 {
		d.serials.Add(r.serial)
		d.obs = append(d.obs, fleet.Observation{
			Class:  class,
			Record: smart.Record{Hour: r.hour, Values: r.values},
		})
		return true
	}
	serial := string(r.serial)
	switch {
	case classErr != nil:
		d.held = append(d.held, quality.Issue{
			Kind: quality.BadField, Field: "device_class", Drive: serial,
			Detail: fmt.Sprintf("record %d: %v", i, classErr),
		})
	case r.nvals != int(smart.NumAttrs):
		d.held = append(d.held, quality.Issue{
			Kind: quality.ShortRow, Drive: serial,
			Detail: fmt.Sprintf("record %d has %d values, want %d", i, r.nvals, smart.NumAttrs),
		})
	default:
		for _, v := range r.bad {
			d.held = append(d.held, quality.Issue{
				Kind: quality.NonFinite, Drive: serial, Field: smart.Attr(v.attr).String(),
				Detail: fmt.Sprintf("record %d value %q is not a finite float64", i, v.text),
			})
		}
	}
	return false
}

// SplitJSON is SplitFrame for JSON ingest bodies: each record's bytes
// are copied verbatim into the body {"records":[...]} of the part
// assign(serial) chooses, with the serial unescaped for assign. It
// scans with DecodeJSON's scanner, so it rejects exactly the bodies a
// node rejects, with the same *FrameError. A record without a serial
// cannot be routed; it is quarantined into rep with the note DecodeJSON
// writes for it, and rep is untouched when the body is rejected. Value
// and class defects pass through to the owner.
func SplitJSON(body []byte, parts int, assign func(serial []byte) int, rep *quality.Report) ([][]byte, error) {
	return SplitJSONInto(nil, body, parts, assign, rep)
}

// SplitJSONInto is SplitJSON refilling the parts of dst, as
// SplitFrameInto does for frames.
func SplitJSONInto(dst [][]byte, body []byte, parts int, assign func(serial []byte) int, rep *quality.Report) ([][]byte, error) {
	dst, err := resetParts(dst, parts)
	if err != nil {
		return nil, err
	}
	var s jsonScanner
	var unrouted []int
	records := 0
	err = s.scan(body, false, func(raw []byte) error {
		records++
		if len(s.rec.serial) == 0 {
			unrouted = append(unrouted, records-1)
			return nil
		}
		idx := assign(s.rec.serial)
		if idx < 0 || idx >= parts {
			return fmt.Errorf("wire: assign placed serial %q in part %d of %d", s.rec.serial, idx, parts)
		}
		if b := dst[idx]; len(b) == 0 {
			// Size for the remaining body: every unassigned record could
			// still land here.
			dst[idx] = append(grow(b, len(bodyHead)+len(raw)+len(body)-s.i+len(bodyTail)), bodyHead...)
		} else {
			dst[idx] = append(b, ',')
		}
		dst[idx] = append(dst[idx], raw...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for idx, b := range dst {
		if len(b) != 0 {
			dst[idx] = append(b, bodyTail...)
		}
	}
	if rep != nil {
		for _, i := range unrouted {
			rep.Note(quality.Issue{
				Kind: quality.BadField, Field: "serial",
				Detail: fmt.Sprintf("record %d has no serial", i),
			}, quality.Config{})
		}
		rep.AddRows(len(unrouted), len(unrouted), 0)
	}
	return dst, nil
}
