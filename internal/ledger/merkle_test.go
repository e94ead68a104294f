package ledger

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func testLeaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = EncodeRecord(Record{Seq: uint64(i) + 1, Key: fmt.Sprintf("k%d", i), Dataset: "ADULT", Mechanism: "DAWA", Eps: 0.1})
	}
	return out
}

// refSplit is the reference RFC 6962 split: the largest power of two
// strictly less than n (n >= 2).
func refSplit(n int) int {
	k := 1
	for 2*k < n {
		k *= 2
	}
	return k
}

// mth is the reference RFC 6962 Merkle tree hash of a non-empty leaf-hash
// range, straight from the recursive definition: it hashes every leaf.
func mth(h []Hash) Hash {
	if len(h) == 1 {
		return h[0]
	}
	k := refSplit(len(h))
	return nodeHash(mth(h[:k]), mth(h[k:]))
}

// authPath is the reference RFC 6962 audit path for leaves[i], bottom-up.
func authPath(leaves []Hash, i uint64) []Hash {
	if len(leaves) <= 1 {
		return nil
	}
	k := refSplit(len(leaves))
	if i < uint64(k) {
		return append(authPath(leaves[:k], i), mth(leaves[k:]))
	}
	return append(authPath(leaves[k:], i-uint64(k)), mth(leaves[:k]))
}

// TestTreeRootMatchesRFC6962 checks the stored-subtree root against the
// reference recursive MTH over the same leaves, for every size up to 64
// (crossing several power-of-two boundaries).
func TestTreeRootMatchesRFC6962(t *testing.T) {
	var tr Tree
	if root, size := tr.Root(); size != 0 || root != EmptyRoot() {
		t.Fatalf("empty tree root = %x (size %d), want EmptyRoot", root, size)
	}
	leaves := testLeaves(64)
	var hashes []Hash
	for i, l := range leaves {
		tr.Append(l)
		hashes = append(hashes, LeafHash(l))
		got, size := tr.Root()
		if size != uint64(i)+1 {
			t.Fatalf("size after %d appends = %d", i+1, size)
		}
		if want := mth(hashes); got != want {
			t.Fatalf("size %d: incremental root %x != recursive MTH %x", i+1, got, want)
		}
	}
}

// checkProof proves leaf i of tr, whose leaf hashes are h and whose root is
// root, and checks the proof byte for byte against the reference audit path
// and root before verifying it offline.
func checkProof(t *testing.T, tr *Tree, h []Hash, root Hash, i uint64) {
	t.Helper()
	size := len(h)
	p, err := tr.Prove(i)
	if err != nil {
		t.Fatalf("size %d: Prove(%d): %v", size, i, err)
	}
	// The proof's leaf hash is reconstructible from the record alone, which
	// is what lets a client verify its own spend offline.
	if p.Index != i || p.Size != uint64(size) || p.LeafHash != h[i] {
		t.Fatalf("size %d: proof for leaf %d has index %d, size %d, leaf %x", size, i, p.Index, p.Size, p.LeafHash)
	}
	if want := authPath(h, i); !slices.Equal(p.Path, want) {
		t.Fatalf("size %d: path for leaf %d differs from the reference:\n got %x\nwant %x", size, i, p.Path, want)
	}
	if p.Root != root {
		t.Fatalf("size %d: proof root %x != reference MTH %x", size, p.Root, root)
	}
	if !VerifyInclusion(p) {
		t.Fatalf("size %d: proof for leaf %d does not verify", size, i)
	}
}

// TestTreeProofsVerify proves every leaf at every tree size up to 64, then
// seeded-random leaves at sizes around each power of two up to 2^14 and at
// the 5000-7800 records the benchmark ledger holds. Every proof must match
// the reference path and root byte for byte and verify offline. Finally it
// checks that any mutation of a valid proof is rejected.
func TestTreeProofsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sampled := map[int]bool{5000: true, 7800: true}
	for k := 1; k <= 14; k++ {
		sampled[1<<k-1], sampled[1<<k], sampled[1<<k+1] = true, true, true
	}
	for range 6 {
		sampled[5001+rng.Intn(7800-5001)] = true
	}

	leaves := testLeaves(1<<14 + 1)
	var tr Tree
	var hashes []Hash
	for size := 1; size <= len(leaves); size++ {
		tr.Append(leaves[size-1])
		hashes = append(hashes, LeafHash(leaves[size-1]))
		switch {
		case size <= 64:
			root := mth(hashes)
			for i := 0; i < size; i++ {
				checkProof(t, &tr, hashes, root, uint64(i))
			}
		case sampled[size]:
			root := mth(hashes)
			for _, i := range []int{0, size - 1, rng.Intn(size), rng.Intn(size), rng.Intn(size)} {
				checkProof(t, &tr, hashes, root, uint64(i))
			}
		}
	}

	p, err := tr.Prove(5)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(Proof) Proof{
		"flipped leaf":    func(p Proof) Proof { p.LeafHash[0] ^= 1; return p },
		"flipped root":    func(p Proof) Proof { p.Root[0] ^= 1; return p },
		"flipped sibling": func(p Proof) Proof { p.Path = append([]Hash{}, p.Path...); p.Path[0][0] ^= 1; return p },
		"wrong index":     func(p Proof) Proof { p.Index++; return p },
		// Size+1 would keep the fold shape for this index and legitimately
		// reverify (the claimed size is authenticated by comparing Root to
		// the published root); halving it changes the shape and must fail.
		"halved size":     func(p Proof) Proof { p.Size /= 2; return p },
		"dropped sibling": func(p Proof) Proof { p.Path = p.Path[:len(p.Path)-1]; return p },
		"extra sibling":   func(p Proof) Proof { p.Path = append(append([]Hash{}, p.Path...), Hash{}); return p },
		// Hostile sizes near the top of uint64 must fail, not hang the
		// verifier in an overflowing split.
		"size 2^62+1": func(p Proof) Proof { p.Size = 1<<62 + 1; return p },
		"size 2^63":   func(p Proof) Proof { p.Size = 1 << 63; return p },
		"size max":    func(p Proof) Proof { p.Size = math.MaxUint64; return p },
	}
	for name, mutate := range mutations {
		if VerifyInclusion(mutate(p)) {
			t.Errorf("%s: mutated proof still verifies", name)
		}
	}

	if _, err := tr.Prove(tr.Size()); err == nil {
		t.Error("Prove past the end succeeded")
	}
}

// TestTreeConcurrentProveAppend races readers against the appender: every
// root and proof taken mid-append must be the one the tree has at that size,
// and every proof must verify.
func TestTreeConcurrentProveAppend(t *testing.T) {
	const n = 4096
	leaves := testLeaves(n)
	// roots[s] is the root at size s, from a tree grown with no readers.
	roots := make([]Hash, n+1)
	var ref Tree
	roots[0] = EmptyRoot()
	for i, l := range leaves {
		ref.Append(l)
		roots[i+1], _ = ref.Root()
	}

	var tr Tree
	tr.Append(leaves[0])
	done := make(chan struct{})
	var ready, wg sync.WaitGroup
	for g := range 4 {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var started sync.Once
			defer started.Do(ready.Done) // a reader that fails early must not hang ready.Wait
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				root, size := tr.Root()
				if root != roots[size] {
					t.Errorf("reader %d: root at size %d is not the tree's root at that size", g, size)
					return
				}
				i := uint64(rng.Int63n(int64(size)))
				p, err := tr.Prove(i)
				if err != nil {
					t.Errorf("reader %d: Prove(%d) at size >= %d: %v", g, i, size, err)
					return
				}
				if !VerifyInclusion(p) || p.Root != roots[p.Size] || p.LeafHash != LeafHash(leaves[i]) {
					t.Errorf("reader %d: proof for leaf %d at size %d is wrong", g, i, p.Size)
					return
				}
				started.Do(ready.Done)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	ready.Wait()
	for _, l := range leaves[1:] {
		tr.Append(l)
	}
	close(done)
	wg.Wait()
}
