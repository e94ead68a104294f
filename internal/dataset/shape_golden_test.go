package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// sourceShapeDigests holds the FNV-1a digest of the bits of every registered
// dataset's SourceShape, in registry order.
var sourceShapeDigests = map[string]string{
	"ADULT":       "c886281bd8565449",
	"HEPPH":       "664ad5426752455e",
	"INCOME":      "89f94720d6e3d9e9",
	"MEDCOST":     "f95fd6bfbd52817d",
	"TRACE":       "fa4589f6135716c7",
	"PATENT":      "c3d613cc54fb2137",
	"SEARCH":      "01d987f56d310a73",
	"BIDS-FJ":     "2f6b840f3951f6f6",
	"BIDS-FM":     "ae337f4c5cccd8dc",
	"BIDS-ALL":    "40967a48d632333b",
	"MD-SAL":      "4e1825ad8b76ba35",
	"MD-SAL-FA":   "f63fb78269108d32",
	"LC-REQ-F1":   "5454331b31223bb1",
	"LC-REQ-F2":   "c80add6c26e941f8",
	"LC-REQ-ALL":  "5dfd30cfe5279933",
	"LC-DTIR-F1":  "d0d9abe9bcbe3cc1",
	"LC-DTIR-F2":  "3c236f3dd7c373cf",
	"LC-DTIR-ALL": "e8632decfcfd202f",
	"BJ-CABS-S":   "4e5d03c599f585a0",
	"BJ-CABS-E":   "36ef77916d7c08b7",
	"GOWALLA":     "0982228ce6f01039",
	"ADULT-2D":    "9a115d99321a8074",
	"SF-CABS-S":   "c0ccf10848359e20",
	"SF-CABS-E":   "b61be94114078ddb",
	"MD-SAL-2D":   "9cc5847680701b54",
	"LC-2D":       "645b24d05c7b8d12",
	"STROKE":      "4cd960d028fcf558",
}

// TestSourceShapeGolden pins every registered dataset's source shape bit for
// bit. The shapes feed every generated sample, so a shape that moves moves
// every experiment number and benchmark digest built on it. They depend on
// more than this package's code: applyZeroFraction orders cells with
// sort.Slice, which is not stable, and BJ-CABS-S's zero target falls inside
// a run of equal cells, so which of them become 1e-9 instead of 0 is up to
// the sort's permutation of equal keys. A Go release that changes sort.Slice
// fails here rather than silently shifting results.
func TestSourceShapeGolden(t *testing.T) {
	all := append(Registry1D(), Registry2D()...)
	if len(all) != len(sourceShapeDigests) {
		t.Errorf("%d registered datasets, %d digests", len(all), len(sourceShapeDigests))
	}
	for _, d := range all {
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range d.SourceShape().Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != sourceShapeDigests[d.Name] {
			t.Errorf("%s source shape digest %s, want %s: the shape changed", d.Name, got, sourceShapeDigests[d.Name])
		}
	}
}
