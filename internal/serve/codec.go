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

// codec carries one Go type in the binary form.
type codec struct {
	// min is the fewest bytes one value takes: the decoder refuses a count
	// the remaining bytes cannot hold, so an absurd length costs nothing.
	min int
	enc func(b []byte, v reflect.Value) []byte
	dec func(d *decoder, v reflect.Value) error
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
	seen[t] = c
	fmt.Fprintf(schema, "%s(", t.Kind())
	defer schema.WriteString(")")
	switch t.Kind() {
	case reflect.Bool:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
		c.dec = func(d *decoder, v reflect.Value) error {
			x, err := d.byte()
			if err == nil && x > 1 {
				err = fmt.Errorf("bool byte %d", x)
			}
			v.SetBool(x == 1)
			return err
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }
		c.dec = func(d *decoder, v reflect.Value) error {
			x, err := d.varint()
			if err == nil && v.OverflowInt(x) {
				err = fmt.Errorf("%d overflows %s", x, v.Type())
			}
			v.SetInt(x)
			return err
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }
		c.dec = func(d *decoder, v reflect.Value) error {
			x, err := d.uvarint()
			if err == nil && v.OverflowUint(x) {
				err = fmt.Errorf("%d overflows %s", x, v.Type())
			}
			v.SetUint(x)
			return err
		}
	case reflect.Float64:
		c.min = 8
		c.enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		}
		c.dec = func(d *decoder, v reflect.Value) error {
			p, err := d.take(8)
			if err == nil {
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
			}
			return err
		}
	case reflect.String:
		c.min = 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
		}
		c.dec = func(d *decoder, v reflect.Value) error {
			s, err := d.string()
			v.SetString(s)
			return err
		}
	case reflect.Array:
		fmt.Fprintf(schema, "%d,", t.Len())
		e, err := plan(t.Elem(), seen, schema)
		if err != nil {
			return nil, err
		}
		n := t.Len()
		c.min = n * e.min
		c.enc = func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = e.enc(b, v.Index(i))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := e.dec(d, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
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
		c.dec = func(d *decoder, v reflect.Value) error {
			n, null, err := d.count(e.min)
			if err != nil || null {
				v.SetZero()
				return err
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n; i++ {
				if err := e.dec(d, s.Index(i)); err != nil {
					return err
				}
			}
			v.Set(s)
			return nil
		}
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
		c.dec = func(d *decoder, v reflect.Value) error {
			n, null, err := d.count(k.min + e.min)
			if err != nil || null {
				v.SetZero()
				return err
			}
			m := reflect.MakeMapWithSize(t, n)
			key, val := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			for i := 0; i < n; i++ {
				if err := k.dec(d, key); err != nil {
					return err
				}
				if err := e.dec(d, val); err != nil {
					return err
				}
				m.SetMapIndex(key, val)
			}
			v.Set(m)
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
		c.dec = func(d *decoder, v reflect.Value) error {
			x, err := d.byte()
			if err != nil || x == 0 {
				v.SetZero()
				return err
			}
			if x != 1 {
				return fmt.Errorf("pointer byte %d", x)
			}
			p := reflect.New(t.Elem())
			v.Set(p)
			return e.dec(d, p.Elem())
		}
	case reflect.Struct:
		type field struct {
			index []int
			c     *codec
		}
		var fields []field
		var walk func(t reflect.Type, index []int) error
		walk = func(t reflect.Type, index []int) error {
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
					if err := walk(f.Type, at); err != nil {
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
				c.min += fc.min
			}
			return nil
		}
		if err := walk(t, nil); err != nil {
			return nil, err
		}
		c.enc = func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.c.enc(b, v.FieldByIndex(f.index))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) error {
			for _, f := range fields {
				if err := f.c.dec(d, v.FieldByIndex(f.index)); err != nil {
					return err
				}
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("serve: the binary result form cannot carry %s (%s)", t, t.Kind())
	}
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
	if err := resultsCodec.dec(d, reflect.ValueOf(r).Elem()); err != nil {
		return nil, fmt.Errorf("serve: bad binary result at byte %d: %w", len(b)-len(d.b), err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("serve: bad binary result: %d bytes past its end", len(d.b))
	}
	return r, nil
}

// decoder reads the binary form from the bytes not yet consumed.
type decoder struct{ b []byte }

var errTruncated = errors.New("truncated")

func (d *decoder) take(n int) ([]byte, error) {
	if n > len(d.b) {
		return nil, errTruncated
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p, nil
}

func (d *decoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, errTruncated
	}
	x := d.b[0]
	d.b = d.b[1:]
	return x, nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		if n == 0 {
			return 0, errTruncated
		}
		return 0, errors.New("varint overflows 64 bits")
	}
	d.b = d.b[n:]
	return x, nil
}

// varint undoes binary.AppendVarint's zigzag mapping.
func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", fmt.Errorf("string of %d bytes with %d left", n, len(d.b))
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// count reads a slice or map count whose elements take at least min bytes
// each; null reports the 0 that stands for nil.
func (d *decoder) count(min int) (n int, null bool, err error) {
	x, err := d.uvarint()
	if err != nil || x == 0 {
		return 0, err == nil, err
	}
	x--
	if x > uint64(len(d.b)/min) {
		return 0, false, fmt.Errorf("count %d with %d bytes left", x, len(d.b))
	}
	return int(x), false, nil
}
