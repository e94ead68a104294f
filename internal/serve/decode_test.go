package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dpbench/internal/algo"
)

// decodeSeeds are the fuzz target's seeds. The canonical ones are parsed in
// one pass; every other one names a class of body that must go to
// encoding/json, which accepts some of them and rejects the rest.
var decodeSeeds = []struct {
	name      string
	body      string
	canonical bool
}{
	{"1D", `{"key":"k00","dataset":"ADULT","mechanism":"HB","epsilon":0.125,"ranges":[{"lo":3,"hi":900},{"lo":0,"hi":1023}]}`, true},
	{"2D", `{"key":"k01","dataset":"GOWALLA","mechanism":"UGRID","epsilon":0.125,"rects":[{"y0":0,"x0":1,"y1":63,"x1":40},{"y0":5,"x0":5,"y1":5,"x1":5}]}`, true},
	{"seeded", `{"key":"seeded-check","dataset":"ADULT","mechanism":"DAWA","epsilon":0.1,"ranges":[{"lo":0,"hi":1}],"seed":-9223372036854775808}`, true},
	{"whitespace", " \n{ \"key\" : \"a b\" ,\t\"dataset\":\"ADULT\", \"mechanism\":\"HB\",\"epsilon\":-1.5E-3,\"ranges\":[ {\"hi\":5,\"lo\":-2} , {} ] }\r\n ", true},
	{"empty ranges", `{"key":"a","ranges":[]}`, true},
	{"empty object", `{}`, true},
	{"upper-case name", `{"Key":"a"}`, false},
	{"escaped name", `{"\u006bey":"a"}`, false},
	{"escaped Kelvin sign name", `{"\u212aey":"a"}`, false},
	{"Kelvin sign name", "{\"\u212aey\":\"a\"}", false},
	{"null", `{"key":null,"ranges":null}`, false},
	{"duplicate key", `{"key":"a","key":"b"}`, false},
	{"duplicate range key", `{"ranges":[{"lo":1,"lo":2}]}`, false},
	{"bytes after the object", `{"key":"a"} x`, false},
	{"escape in a value", `{"key":"a\"b"}`, false},
	{"non-ASCII value", `{"key":"é"}`, false},
	{"fraction for an int", `{"ranges":[{"lo":1.0,"hi":2}]}`, false},
	{"epsilon out of range", `{"epsilon":1e400}`, false},
	{"minus zero", `{"ranges":[{"lo":-0,"hi":0}]}`, false},
	{"leading zero", `{"ranges":[{"lo":01,"hi":2}]}`, false},
	{"int overflow", `{"seed":9223372036854775808}`, false},
	{"unknown field", `{"key":"a","nope":1}`, false},
	{"unknown field in a range", `{"ranges":[{"lo":1,"hi":2,"mid":3}]}`, false},
	{"empty body", ``, false},
	{"top-level array", `[{"key":"a"}]`, false},
}

// decodeBody runs decodeQueryRequest on b as the body of a /v1/query request.
func decodeBody(b []byte) (QueryRequest, error) {
	var req QueryRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b))
	err := decodeQueryRequest(httptest.NewRecorder(), r, &req)
	return req, err
}

// checkAgainstJSON fails t unless decodeQueryRequest and encoding/json with
// DisallowUnknownFields make the same of b: the same struct, or the same
// error.
func checkAgainstJSON(t *testing.T, b []byte) {
	t.Helper()
	got, gotErr := decodeBody(b)
	if len(b) > maxRequestBytes {
		if gotErr == nil {
			t.Fatalf("a %d-byte body was accepted", len(b))
		}
		return
	}
	var want QueryRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: error %v, encoding/json's %v", b, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("body %q: error %q, encoding/json's %q", b, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q: decoded %#v, encoding/json %#v", b, got, want)
	}
}

func TestDecodeQueryRequestSeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		t.Run(s.name, func(t *testing.T) {
			var req QueryRequest
			if got := parseCanonical([]byte(s.body), &req); got != s.canonical {
				t.Errorf("parsed in one pass: %v, want %v", got, s.canonical)
			}
			checkAgainstJSON(t, []byte(s.body))
		})
	}
}

// TestMarshalledRequestsTakeOnePass pins the speed of the decoder: every
// body json.Marshal writes for a QueryRequest, which is what perfbench and
// Go clients send, is parsed in one pass, never by the fallback.
func TestMarshalledRequestsTakeOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const keyChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.:/ "
	mechs, datasets := algo.Names(), datasetNames()
	randInt := func() int {
		switch rng.Intn(4) {
		case 0:
			return int(rng.Uint64()) // any int, the extremes included
		case 1:
			return []int{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
		default:
			return rng.Intn(4096) - 64
		}
	}
	for i := 0; i < 300; i++ {
		key := make([]byte, 1+rng.Intn(maxKeyBytes))
		for j := range key {
			key[j] = keyChars[rng.Intn(len(keyChars))]
		}
		req := QueryRequest{
			Key:       string(key),
			Dataset:   datasets[rng.Intn(len(datasets))],
			Mechanism: mechs[rng.Intn(len(mechs))],
			Epsilon:   rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300)),
		}
		n := 1 + rng.Intn(1000)
		switch i % 3 {
		case 0:
			req.Ranges = make([]Range, n)
			for j := range req.Ranges {
				req.Ranges[j] = Range{randInt(), randInt()}
			}
		case 1:
			req.Rects = make([]Rect, n)
			for j := range req.Rects {
				req.Rects[j] = Rect{randInt(), randInt(), randInt(), randInt()}
			}
		case 2:
			req.Ranges = []Range{{randInt(), randInt()}}
			req.Seed = int64(rng.Uint64()) | 1
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got QueryRequest
		if !parseCanonical(body, &got) {
			t.Fatalf("json.Marshal's body fell back to encoding/json: %.300s", body)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("one-pass parse of %.300s gave %#v", body, got)
		}
	}
}

// FuzzDecodeQueryRequest checks decodeQueryRequest against encoding/json
// with DisallowUnknownFields, which /v1/query used alone before: on every
// body both accept with equal structs, or both reject with the same error.
func FuzzDecodeQueryRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstJSON(t, b)
	})
}
