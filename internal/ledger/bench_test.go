package ledger

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// BenchmarkWALAppendSerial is the un-batched floor: one record, one fsync.
func BenchmarkWALAppendSerial(b *testing.B) {
	w, err := OpenWAL(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := Record{Key: "bench", Dataset: "ADULT", Mechanism: "HB", Eps: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append([]Record{rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatcherSubmitWAL measures group commit doing its job: many
// concurrent submitters share each fsync, so per-op cost lands well under the
// serial floor (divide this ns/op into BenchmarkWALAppendSerial's to see the
// effective batch size).
func BenchmarkBatcherSubmitWAL(b *testing.B) {
	w, err := OpenWAL(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	bt := NewBatcher(w, 128, nil)
	defer bt.Close()
	rec := Record{Key: "bench", Dataset: "ADULT", Mechanism: "HB", Eps: 0.1}
	b.ReportAllocs()
	b.SetParallelism(64) // keep well over maxBatch submissions in flight
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := bt.Submit(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchLeaf is the canonical encoding of a typical spend record.
var benchLeaf = EncodeRecord(Record{Seq: 1, Key: "bench", Dataset: "ADULT", Mechanism: "HB", Eps: 0.1})

// treeOfSize returns a tree of n leaves.
func treeOfSize(n uint64) *Tree {
	tr := new(Tree)
	for range n {
		tr.Append(benchLeaf)
	}
	return tr
}

// BenchmarkTreeProve measures one inclusion proof of a random leaf at the
// benchmark ledger's size and at a 1M-leaf size that is not a power of two,
// so the proof also hashes along the tree's right edge.
func BenchmarkTreeProve(b *testing.B) {
	for _, n := range []uint64{5000, 1<<20 + 12345} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := treeOfSize(n)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tr.Prove(uint64(rng.Int63n(int64(n)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeAppend measures one append to a growing tree: a leaf hash
// plus, amortized, one node hash for the subtrees it completes.
func BenchmarkTreeAppend(b *testing.B) {
	var tr Tree
	b.ReportAllocs()
	for b.Loop() {
		tr.Append(benchLeaf)
	}
}

// BenchmarkTreeAppendDuringProve measures Append on a 1M-leaf tree while one
// goroutine proves in a loop: the wait that /v1/proof readers impose on the
// ledger's committer. p99-ns/op is the tail of that wait.
func BenchmarkTreeAppendDuringProve(b *testing.B) {
	const n = 1<<20 + 12345
	tr := treeOfSize(n)
	proving, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			_, err := tr.Prove(uint64(rng.Int63n(n)))
			if i == 0 {
				close(proving)
			}
			if err != nil {
				b.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-proving // time only appends that overlap the prover's loop
	var waits []time.Duration
	for b.Loop() {
		start := time.Now()
		tr.Append(benchLeaf)
		waits = append(waits, time.Since(start))
	}
	close(stop)
	wg.Wait()
	slices.Sort(waits)
	b.ReportMetric(float64(waits[len(waits)*99/100].Nanoseconds()), "p99-ns/op")
}
