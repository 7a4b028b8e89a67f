package serve

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"unsafe"

	"reactivenoc/internal/chip"
)

// The binary result form carries a chip.Results in about 40% of its JSON
// bytes and decodes several times faster, because nothing is parsed: a
// reflection walk over the type, planned once, reads each value straight
// from its bytes. It carries exactly what encoding/json carries, so the two
// decode to equal Results:
//
//   - a struct is its fields in order, the ones JSON skips left out (tagged
//     "-", unexported); an embedded struct's fields are walked in place, as
//     JSON promotes them;
//   - bools are one byte, ints zigzag varints, uints varints, float64s their
//     exact IEEE bits (little-endian), strings a varint length and the
//     bytes;
//   - arrays are their elements; slices and maps a varint count plus one,
//     0 standing for nil (JSON's null), and map keys go in sorted order so
//     one value has one encoding;
//   - a pointer is a presence byte, then its element.
//
// A type the walk cannot carry as JSON does — interfaces, channels, funcs
// not tagged "-", maps keyed by anything but strings, a type with its own
// JSON or text methods — fails planning, which tier-1 checks, and never
// reaches a served run.
//
// The media type names a schema hash of the plan (field names, kinds and
// array lengths), so a client and a server built from different Results
// fall back to JSON instead of misreading each other.

// codec carries one Go type in the binary form. The encoder walks
// reflect.Values. The decoder writes through p, the address of the value
// it fills: planning resolved every struct field to its offset and every
// leaf to a store of its kind and width (an op), and flattened structs and
// arrays held by value into one list of ops, so decoding takes no
// reflect.Value per leaf.
//
// The stores are safe because offsets and widths come from the type alone,
// never from the input: a value's ops address only bytes inside it (its
// fields, or its array's elements), and a slice's elements are written only
// into a backing array just allocated, at the count read, for its type.
// Reflection stays where the runtime must allocate: slices, maps and
// pointers.
type codec struct {
	// min is the fewest bytes one value takes: the decoder refuses a count
	// the remaining bytes cannot hold, so an absurd length costs nothing.
	min int
	enc func(b []byte, v reflect.Value) []byte
	// ops decode one value. A slice, map or pointer is one opCall to dec;
	// every other codec's dec runs its ops.
	ops  []op
	dec  func(d *decoder, p unsafe.Pointer) error
	done bool // ops is final: a struct or array holding this type copies it
}

// op decodes one leaf at off bytes into the value being filled, or, as
// opCall, hands that address to c.dec.
type op struct {
	off  uintptr
	kind opKind
	c    *codec
	t    reflect.Type // the leaf's type, for an overflow's error
}

type opKind uint8

const (
	opCall opKind = iota
	opBool
	opInt8
	opInt16
	opInt32
	opInt64
	opUint8
	opUint16
	opUint32
	opUint64
	opFloat64
	opString
)

// leafOp returns the op that stores a leaf of t's kind and width (int and
// uint are as wide as the platform's), or false for a type that is not a
// leaf.
func leafOp(t reflect.Type) (opKind, bool) {
	switch t.Kind() {
	case reflect.Bool:
		return opBool, true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return [...]opKind{1: opInt8, 2: opInt16, 4: opInt32, 8: opInt64}[t.Size()], true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return [...]opKind{1: opUint8, 2: opUint16, 4: opUint32, 8: opUint64}[t.Size()], true
	case reflect.Float64:
		return opFloat64, true
	case reflect.String:
		return opString, true
	}
	return 0, false
}

// appendOps appends the ops that decode a value of c's type at off.
func appendOps(ops []op, c *codec, off uintptr) []op {
	if !c.done {
		// A type still being planned, reached again through a pointer,
		// slice or map of itself: its ops are not known yet.
		return append(ops, op{off: off, kind: opCall, c: c})
	}
	for _, o := range c.ops {
		o.off += off
		ops = append(ops, o)
	}
	return ops
}

// resultsCodec carries chip.Results; resultsPlanErr says why it cannot,
// in which case resultsMediaType is empty and everything travels as JSON.
var resultsCodec, resultsMediaType, resultsPlanErr = planResults(reflect.TypeOf(chip.Results{}))

func planResults(t reflect.Type) (*codec, string, error) {
	var schema strings.Builder
	c, err := plan(t, map[reflect.Type]*codec{}, &schema)
	if err != nil {
		return nil, "", err
	}
	h := fnv.New64a()
	h.Write([]byte(schema.String()))
	return c, fmt.Sprintf("application/x-reactivenoc-results; schema=%016x", h.Sum64()), nil
}

var (
	jsonMarshaler   = reflect.TypeFor[json.Marshaler]()
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textMarshaler   = reflect.TypeFor[encoding.TextMarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// plan builds t's codec, writing t's shape to schema. seen holds the codecs
// planned so far, so a recursive type refers back to its own codec.
func plan(t reflect.Type, seen map[reflect.Type]*codec, schema *strings.Builder) (*codec, error) {
	if c, ok := seen[t]; ok {
		fmt.Fprintf(schema, "<%s>", t)
		return c, nil
	}
	for _, m := range []reflect.Type{jsonMarshaler, jsonUnmarshaler, textMarshaler, textUnmarshaler} {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return nil, fmt.Errorf("serve: %s has its own %s, which the binary result form does not run", t, m)
		}
	}
	c := &codec{}
	c.dec = func(d *decoder, p unsafe.Pointer) error { return d.run(c.ops, p, 1, 0) }
	seen[t] = c
	fmt.Fprintf(schema, "%s(", t.Kind())
	defer schema.WriteString(")")
	if k, ok := leafOp(t); ok {
		c.ops = []op{{kind: k, t: t}}
	}
	switch t.Kind() {
	case reflect.Bool:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }
	case reflect.Float64:
		c.min = 8
		c.enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		}
	case reflect.String:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
		}
	case reflect.Array:
		fmt.Fprintf(schema, "%d,", t.Len())
		e, err := plan(t.Elem(), seen, schema)
		if err != nil {
			return nil, err
		}
		n, size := t.Len(), t.Elem().Size()
		c.min = n * e.min
		c.enc = func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = e.enc(b, v.Index(i))
			}
			return b
		}
		for i := 0; i < n; i++ {
			c.ops = appendOps(c.ops, e, uintptr(i)*size)
		}
	case reflect.Slice:
		e, err := plan(t.Elem(), seen, schema)
		if err != nil {
			return nil, err
		}
		if e.min == 0 {
			return nil, fmt.Errorf("serve: %s's elements carry no bytes, so its length is unbounded by its input", t)
		}
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			b = binary.AppendUvarint(b, uint64(v.Len())+1)
			for i := 0; i < v.Len(); i++ {
				b = e.enc(b, v.Index(i))
			}
			return b
		}
		size := t.Elem().Size()
		c.dec = func(d *decoder, p unsafe.Pointer) error {
			v := reflect.NewAt(t, p).Elem()
			v.SetZero() // Grow must allocate afresh, not extend what p holds
			n, null, err := d.count(e.min)
			if err != nil || null {
				return err
			}
			if n == 0 {
				v.Set(reflect.MakeSlice(t, 0, 0)) // empty, not nil: JSON's []
				return nil
			}
			v.Grow(n) // in place at p: no slice header allocated for a Value
			v.SetLen(n)
			return d.run(e.ops, v.UnsafePointer(), n, size)
		}
		c.ops = []op{{kind: opCall, c: c}}
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			return nil, fmt.Errorf("serve: %s is keyed by %s; the binary result form carries string keys only", t, t.Key())
		}
		k, err := plan(t.Key(), seen, schema)
		if err != nil {
			return nil, err
		}
		e, err := plan(t.Elem(), seen, schema)
		if err != nil {
			return nil, err
		}
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			keys := v.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
			b = binary.AppendUvarint(b, uint64(len(keys))+1)
			for _, key := range keys {
				b = k.enc(b, key)
				b = e.enc(b, v.MapIndex(key))
			}
			return b
		}
		c.ops = []op{{kind: opCall, c: c}}
		if t == reflect.TypeFor[map[string]int64]() {
			c.dec = decodeCounters
			break
		}
		c.dec = func(d *decoder, p unsafe.Pointer) error {
			v := reflect.NewAt(t, p).Elem()
			n, null, err := d.count(k.min + e.min)
			if err != nil || null {
				v.SetZero()
				return err
			}
			m := reflect.MakeMapWithSize(t, n)
			v.Set(m)
			key, val := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			kp, vp := key.Addr().UnsafePointer(), val.Addr().UnsafePointer()
			for i := 0; i < n; i++ {
				if err := k.dec(d, kp); err != nil {
					return err
				}
				if err := e.dec(d, vp); err != nil {
					return err
				}
				m.SetMapIndex(key, val)
			}
			return nil
		}
	case reflect.Pointer:
		e, err := plan(t.Elem(), seen, schema)
		if err != nil {
			return nil, err
		}
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return e.enc(append(b, 1), v.Elem())
		}
		c.dec = func(d *decoder, p unsafe.Pointer) error {
			x, err := d.byte()
			if err != nil || x == 0 {
				*(*unsafe.Pointer)(p) = nil
				return err
			}
			if x != 1 {
				return fmt.Errorf("pointer byte %d", x)
			}
			elem := reflect.New(t.Elem()).UnsafePointer()
			*(*unsafe.Pointer)(p) = elem
			return e.dec(d, elem)
		}
		c.ops = []op{{kind: opCall, c: c}}
	case reflect.Struct:
		type field struct {
			index []int
			c     *codec
		}
		var fields []field
		var walk func(t reflect.Type, index []int, off uintptr) error
		walk = func(t reflect.Type, index []int, off uintptr) error {
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				at := append(slices.Clip(index), i)
				tag := f.Tag.Get("json")
				name, _, _ := strings.Cut(tag, ",")
				embedded := f.Anonymous && f.Type.Kind() == reflect.Struct
				switch {
				case tag == "-":
					continue
				case f.Anonymous && f.Type.Kind() == reflect.Pointer:
					return fmt.Errorf("serve: %s embeds %s; the binary result form does not follow embedded pointers", t, f.Type)
				case embedded && name == "":
					// JSON promotes an untagged embedded struct's fields,
					// an unexported one's included.
					if err := walk(f.Type, at, off+f.Offset); err != nil {
						return err
					}
					continue
				case !f.IsExported() && !embedded:
					continue
				}
				fmt.Fprintf(schema, "%s:", f.Name)
				fc, err := plan(f.Type, seen, schema)
				if err != nil {
					return err
				}
				fields = append(fields, field{at, fc})
				c.ops = appendOps(c.ops, fc, off+f.Offset)
				c.min += fc.min
			}
			return nil
		}
		if err := walk(t, nil, 0); err != nil {
			return nil, err
		}
		c.enc = func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.c.enc(b, v.FieldByIndex(f.index))
			}
			return b
		}
	default:
		return nil, fmt.Errorf("serve: the binary result form cannot carry %s (%s)", t, t.Kind())
	}
	c.done = true
	return c, nil
}

// encodeResults returns r in the binary result form.
func encodeResults(r *chip.Results) ([]byte, error) {
	if resultsPlanErr != nil {
		return nil, resultsPlanErr
	}
	return resultsCodec.enc(nil, reflect.ValueOf(r).Elem()), nil
}

// decodeResults reads a whole binary result body. Truncated input, bytes
// past the end of the value and counts the input cannot hold are errors,
// and no count allocates more than the remaining bytes allow.
func decodeResults(b []byte) (*chip.Results, error) {
	if resultsPlanErr != nil {
		return nil, resultsPlanErr
	}
	r := new(chip.Results)
	d := &decoder{b: b}
	if err := resultsCodec.dec(d, unsafe.Pointer(r)); err != nil {
		return nil, fmt.Errorf("serve: bad binary result at byte %d: %w", d.at, err)
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("serve: bad binary result: %d bytes past its end", d.left())
	}
	return r, nil
}

// run decodes n values, each by ops, the first at p and the rest size
// bytes apart: one value, or a slice's elements.
func (d *decoder) run(ops []op, p unsafe.Pointer, n int, size uintptr) error {
	for k := 0; k < n; k++ {
		v := unsafe.Add(p, uintptr(k)*size)
		for i := range ops {
			o := &ops[i]
			q := unsafe.Add(v, o.off)
			var err error
			switch o.kind {
			case opCall:
				err = o.c.dec(d, q)
			case opBool:
				var x byte
				if x, err = d.byte(); err == nil && x > 1 {
					err = fmt.Errorf("bool byte %d", x)
				}
				*(*bool)(q) = x == 1
			case opInt8:
				err = storeInt[int8](d, q, o.t)
			case opInt16:
				err = storeInt[int16](d, q, o.t)
			case opInt32:
				err = storeInt[int32](d, q, o.t)
			case opInt64:
				*(*int64)(q), err = d.varint()
			case opUint8:
				err = storeUint[uint8](d, q, o.t)
			case opUint16:
				err = storeUint[uint16](d, q, o.t)
			case opUint32:
				err = storeUint[uint32](d, q, o.t)
			case opUint64:
				*(*uint64)(q), err = d.uvarint()
			case opFloat64:
				var x []byte
				if x, err = d.take(8); err == nil {
					*(*float64)(q) = math.Float64frombits(binary.LittleEndian.Uint64(x))
				}
			case opString:
				*(*string)(q), err = d.string()
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// storeInt and storeUint store a varint into an integer of T's width,
// refusing one it cannot hold.
func storeInt[T int8 | int16 | int32](d *decoder, p unsafe.Pointer, t reflect.Type) error {
	x, err := d.varint()
	if err == nil && int64(T(x)) != x {
		return fmt.Errorf("%d overflows %s", x, t)
	}
	*(*T)(p) = T(x)
	return err
}

func storeUint[T uint8 | uint16 | uint32](d *decoder, p unsafe.Pointer, t reflect.Type) error {
	x, err := d.uvarint()
	if err == nil && uint64(T(x)) != x {
		return fmt.Errorf("%d overflows %s", x, t)
	}
	*(*T)(p) = T(x)
	return err
}

// decodeCounters decodes a map[string]int64 — every sim.Snapshot's Vals,
// dozens of metric names a result — without reflection, and cuts its keys
// from one string: a first pass checks the entries and sums their key
// bytes, and the second, reading without checks, fills the map, each key
// a substring of what the builder, grown once to the sum, holds so far.
func decodeCounters(d *decoder, p unsafe.Pointer) error {
	m := (*map[string]int64)(p)
	n, null, err := d.count(2)
	if err != nil || null {
		*m = nil
		return err
	}
	b, at, total := d.b, d.at, 0
	for i := 0; i < n; i++ {
		k, w := binary.Uvarint(b[at:])
		if w > 0 && k > uint64(len(b)-at-w) {
			w = 0 // a key longer than the bytes left: truncated
		}
		if w > 0 {
			at += w + int(k)
			total += int(k)
			_, w = binary.Uvarint(b[at:])
		}
		if w <= 0 {
			d.at = at
			return uvarintError(w)
		}
		at += w
	}
	var keys strings.Builder
	keys.Grow(total)
	*m = make(map[string]int64, n)
	for at = d.at; n > 0; n-- {
		k, w := binary.Uvarint(b[at:])
		at += w
		keys.Write(b[at : at+int(k)]) // within the grown capacity: earlier keys stay put
		at += int(k)
		v, w := binary.Uvarint(b[at:])
		at += w
		all := keys.String()
		(*m)[all[len(all)-int(k):]] = int64(v>>1) ^ -int64(v&1)
	}
	d.at = at
	return nil
}

// decoder reads the binary form from b[at:]. Only the int at moves as it
// reads, so a read stores no pointer.
type decoder struct {
	b  []byte
	at int
}

// left is the count of bytes not yet read.
func (d *decoder) left() int { return len(d.b) - d.at }

var errTruncated = errors.New("truncated")

func (d *decoder) take(n int) ([]byte, error) {
	if n > d.left() {
		return nil, errTruncated
	}
	p := d.b[d.at : d.at+n]
	d.at += n
	return p, nil
}

func (d *decoder) byte() (byte, error) {
	if d.at >= len(d.b) {
		return 0, errTruncated
	}
	d.at++
	return d.b[d.at-1], nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b[d.at:])
	if n <= 0 {
		return 0, uvarintError(n)
	}
	d.at += n
	return x, nil
}

// uvarintError is the error for binary.Uvarint's byte count n <= 0.
func uvarintError(n int) error {
	if n == 0 {
		return errTruncated
	}
	return errors.New("varint overflows 64 bits")
}

// varint undoes binary.AppendVarint's zigzag mapping.
func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

func (d *decoder) string() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// bytes reads a string's bytes without copying them out of the input.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.left()) {
		return nil, fmt.Errorf("string of %d bytes with %d left", n, d.left())
	}
	return d.take(int(n))
}

// count reads a slice or map count whose elements take at least min bytes
// each; null reports the 0 that stands for nil.
func (d *decoder) count(min int) (n int, null bool, err error) {
	x, err := d.uvarint()
	if err != nil || x == 0 {
		return 0, err == nil, err
	}
	x--
	if x > uint64(d.left()/min) {
		return 0, false, fmt.Errorf("count %d with %d bytes left", x, d.left())
	}
	return int(x), false, nil
}
