package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON interchange form for values, used by the graph (de)serialiser
// and the CLI. Scalars map onto native JSON scalars; the remaining
// kinds use a one-key wrapper object so decoding is unambiguous:
//
//	42            integer
//	1.5           float (any JSON number with a fraction/exponent)
//	"x"           string
//	true          bool
//	{"date":"1/12/2014"}
//	{"list":[...]}
//	{"set":[...]}
//	{"node":7} {"edge":7} {"path":7}
//	null          absent

// MarshalJSON encodes v in the interchange form.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

// AppendJSON appends v's interchange form to dst. The bytes are what
// encoding/json writes for it — compact, with <, >, &, U+2028/2029 and
// control bytes escaped and invalid UTF-8 replaced — so documents built
// by appending values need no re-encoding pass. A NaN or infinite float
// has no JSON form and fails, as does an unknown kind.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...), nil
	case KindBool:
		return strconv.AppendBool(dst, v.b), nil
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10), nil
	case KindFloat:
		if v.f == float64(int64(v.f)) {
			// Force a fraction so the value round-trips as a float.
			return strconv.AppendFloat(dst, v.f, 'f', 1, 64), nil
		}
		return AppendJSONFloat(dst, v.f)
	case KindString:
		return AppendJSONString(dst, v.s), nil
	case KindDate:
		dst = AppendJSONString(append(dst, `{"date":`...), v.String())
		return append(dst, '}'), nil
	case KindList:
		return appendElems(append(dst, `{"list":`...), v.elems)
	case KindSet:
		return appendElems(append(dst, `{"set":`...), v.elems)
	case KindNode:
		return appendRef(dst, `{"node":`, v.i), nil
	case KindEdge:
		return appendRef(dst, `{"edge":`, v.i), nil
	case KindPath:
		return appendRef(dst, `{"path":`, v.i), nil
	}
	return dst, fmt.Errorf("value: cannot marshal kind %v", v.kind)
}

// appendElems appends a wrapper's element array and closes the wrapper.
func appendElems(dst []byte, elems []Value) ([]byte, error) {
	if elems == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = e.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

func appendRef(dst []byte, open string, id int64) []byte {
	dst = strconv.AppendUint(append(dst, open...), uint64(id), 10)
	return append(dst, '}')
}

// AppendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("value: %v has no JSON form", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendJSONString appends s as a JSON string the way encoding/json
// writes one with HTML escaping on (its default).
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029: // line and paragraph separators
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON decodes the interchange form.
func (v *Value) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	got, err := fromJSON(raw)
	if err != nil {
		return err
	}
	*v = got
	return nil
}

func fromJSON(raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool(x), nil
	case string:
		return Str(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return Null, fmt.Errorf("value: bad number %q", x.String())
		}
		return Float(f), nil
	case float64: // defensive: decoder without UseNumber
		if x == float64(int64(x)) {
			return Int(int64(x)), nil
		}
		return Float(x), nil
	case map[string]any:
		if len(x) != 1 {
			return Null, fmt.Errorf("value: wrapper object must have exactly one key, got %d", len(x))
		}
		for k, inner := range x {
			switch k {
			case "date":
				s, ok := inner.(string)
				if !ok {
					return Null, fmt.Errorf("value: date wrapper needs a string")
				}
				return ParseDate(s)
			case "list", "set":
				arr, ok := inner.([]any)
				if !ok {
					return Null, fmt.Errorf("value: %s wrapper needs an array", k)
				}
				elems := make([]Value, len(arr))
				for i, e := range arr {
					v, err := fromJSON(e)
					if err != nil {
						return Null, err
					}
					elems[i] = v
				}
				if k == "list" {
					return List(elems...), nil
				}
				return Set(elems...), nil
			case "node", "edge", "path":
				id, err := jsonID(inner)
				if err != nil {
					return Null, err
				}
				switch k {
				case "node":
					return NodeRef(id), nil
				case "edge":
					return EdgeRef(id), nil
				default:
					return PathRef(id), nil
				}
			default:
				return Null, fmt.Errorf("value: unknown wrapper key %q", k)
			}
		}
	}
	return Null, fmt.Errorf("value: cannot decode %T", raw)
}

func jsonID(inner any) (uint64, error) {
	switch n := inner.(type) {
	case json.Number:
		i, err := n.Int64()
		if err != nil || i < 0 {
			return 0, fmt.Errorf("value: bad identifier %v", inner)
		}
		return uint64(i), nil
	case float64:
		if n < 0 || n != float64(uint64(n)) {
			return 0, fmt.Errorf("value: bad identifier %v", n)
		}
		return uint64(n), nil
	}
	return 0, fmt.Errorf("value: identifier must be a number, got %T", inner)
}
