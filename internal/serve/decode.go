package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// bodyBufs recycles the buffers that /v1/query bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeQueryRequest reads a /v1/query body whole, up to maxRequestBytes,
// and decodes it into req. A body over the cap is an error whatever it holds.
//
// A body in the canonical form json.Marshal writes for a QueryRequest is
// parsed in one pass with no reflection: each of the seven field names in
// lowercase at most once, strings of printable ASCII with no escapes,
// integers without fraction, exponent or leading zeros that fit their
// field, range and rect objects with each of their keys at most once, and
// nothing but whitespace after the closing brace. Every other body goes to
// encoding/json with DisallowUnknownFields over the same bytes, so
// case-folded names, escapes, null, duplicate keys, trailing bytes and every
// error message behave exactly as encoding/json makes them.
func decodeQueryRequest(w http.ResponseWriter, r *http.Request, req *QueryRequest) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes)); err != nil {
		return err
	}
	if parseCanonical(buf.Bytes(), req) {
		return nil
	}
	*req = QueryRequest{}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

var (
	requestFields = []string{"key", "dataset", "mechanism", "epsilon", "ranges", "rects", "seed"}
	rangeFields   = []string{"lo", "hi"}
	rectFields    = []string{"y0", "x0", "y1", "x1"}
)

// parseCanonical parses b into req if b is a request body in canonical form
// (see decodeQueryRequest) and reports whether it was. On false, req holds
// partial values and b must be decoded some other way.
func parseCanonical(b []byte, req *QueryRequest) bool {
	p := parser{b: b}
	ok := p.object(requestFields, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			req.Key, ok = p.string()
		case 1:
			req.Dataset, ok = p.string()
		case 2:
			req.Mechanism, ok = p.string()
		case 3:
			req.Epsilon, ok = p.float()
		case 4:
			req.Ranges, ok = list(&p, rangeFields, func(v []int) Range { return Range{v[0], v[1]} })
		case 5:
			req.Rects, ok = list(&p, rectFields, func(v []int) Rect { return Rect{v[0], v[1], v[2], v[3]} })
		case 6:
			req.Seed, ok = p.int(64)
		}
		return ok
	})
	p.space()
	return ok && p.i == len(b)
}

// parser is a cursor over a body that parseCanonical reads.
type parser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and then c, reporting whether c was there.
func (p *parser) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses an object whose member names are all in names, each at
// most once; value parses the value of the member named names[k].
func (p *parser) object(names []string, value func(k int) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint
	for {
		name, ok := p.quoted()
		if !ok || !p.next(':') {
			return false
		}
		k := len(names) - 1
		for k >= 0 && names[k] != string(name) {
			k--
		}
		if k < 0 || seen&(1<<k) != 0 || !value(k) {
			return false
		}
		seen |= 1 << k
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// list parses an array of objects with int members named by names (at
// most four), building each element with elem. An empty array gives a
// non-nil empty slice, as encoding/json does.
func list[T any](p *parser, names []string, elem func(v []int) T) ([]T, bool) {
	if !p.next('[') {
		return nil, false
	}
	out := []T{}
	if p.next(']') {
		return out, true
	}
	var v [4]int
	for {
		v = [4]int{}
		ok := p.object(names, func(k int) bool {
			n, ok := p.int(strconv.IntSize)
			v[k] = int(n)
			return ok
		})
		if !ok {
			return nil, false
		}
		out = append(out, elem(v[:]))
		if p.next(']') {
			return out, true
		}
		if !p.next(',') {
			return nil, false
		}
	}
}

// quoted parses a string of printable ASCII with no escapes and returns its
// contents, which alias the body.
func (p *parser) quoted() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// string parses a quoted string value into a string of its own.
func (p *parser) string() (string, bool) {
	s, ok := p.quoted()
	return string(s), ok
}

// int parses an integer matching 0|-?[1-9][0-9]* that fits in a signed
// integer of the given bit size. "-0", which encoding/json reads as 0, is
// left to it.
func (p *parser) int(bits int) (int64, bool) {
	p.space()
	i := p.i
	neg := i < len(p.b) && p.b[i] == '-'
	if neg {
		i++
	}
	if i < len(p.b) && p.b[i] == '0' && !neg {
		p.i = i + 1
		return 0, true
	}
	if i >= len(p.b) || p.b[i] < '1' || p.b[i] > '9' {
		return 0, false
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var u uint64
	for ; i < len(p.b) && p.b[i] >= '0' && p.b[i] <= '9'; i++ {
		d := uint64(p.b[i] - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	p.i = i
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// float parses a JSON number with the strconv.ParseFloat call that
// encoding/json makes; a literal it cannot represent is left to
// encoding/json.
func (p *parser) float() (float64, bool) {
	p.space()
	start, i := p.i, p.i
	if i < len(p.b) && p.b[i] == '-' {
		i++
	}
	switch {
	case i < len(p.b) && p.b[i] == '0':
		i++
	case i < len(p.b) && p.b[i] >= '1' && p.b[i] <= '9':
		i = p.digits(i)
	default:
		return 0, false
	}
	if i < len(p.b) && p.b[i] == '.' {
		j := p.digits(i + 1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(p.b) && (p.b[i] == 'e' || p.b[i] == 'E') {
		i++
		if i < len(p.b) && (p.b[i] == '+' || p.b[i] == '-') {
			i++
		}
		j := p.digits(i)
		if j == i {
			return 0, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(p.b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return f, true
}

// digits returns the index of the first non-digit at or after i.
func (p *parser) digits(i int) int {
	for i < len(p.b) && p.b[i] >= '0' && p.b[i] <= '9' {
		i++
	}
	return i
}
