package ledger

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Hash is a SHA-256 digest: a Merkle leaf, node, or root.
type Hash = [sha256.Size]byte

// Domain-separation prefixes (RFC 6962): a leaf hash can never be
// reinterpreted as an interior node or vice versa.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one canonical record encoding into its Merkle leaf.
func LeafHash(leaf []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(leaf)
	var out Hash
	h.Sum(out[:0])
	return out
}

func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// EmptyRoot is the root of a ledger with no committed records.
func EmptyRoot() Hash { return sha256.Sum256(nil) }

// Tree is an append-only RFC 6962-style Merkle tree over the ledger's
// canonical record encodings, appended in commit order. The root at size n
// commits the entire committed prefix: changing, dropping, or reordering any
// record changes the root, so a caller that remembers one root — or compares
// roots with other callers — can detect a rewritten history. It is safe for
// concurrent appends and reads. It stores every complete subtree's hash
// (about 64 bytes per record), so Root and Prove cost O(log n) and hold the
// read lock for microseconds, never delaying a concurrent Append for long.
type Tree struct {
	mu sync.RWMutex
	// levels[k][j] is the hash of the complete subtree over leaves
	// [j·2^k, (j+1)·2^k); levels[0] holds the leaf hashes.
	levels [64][]Hash
}

// Append adds one record encoding as the next leaf.
func (t *Tree) Append(leaf []byte) {
	h := LeafHash(leaf)
	t.mu.Lock()
	defer t.mu.Unlock()
	// A level that reaches an even length has completed a subtree one level
	// up: merge upward until a level is left with an odd length.
	for k := 0; ; k++ {
		t.levels[k] = append(t.levels[k], h)
		n := len(t.levels[k])
		if n%2 == 1 {
			return
		}
		h = nodeHash(t.levels[k][n-2], h)
	}
}

// Size returns the number of leaves.
func (t *Tree) Size() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return uint64(len(t.levels[0]))
}

// Root returns the current root and the size it commits to.
func (t *Tree) Root() (Hash, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := uint64(len(t.levels[0]))
	if n == 0 {
		return EmptyRoot(), 0
	}
	return t.subtree(0, n), n
}

// subtree returns the RFC 6962 hash of leaves [lo, hi), a range the split
// visits. Such a range starts at a multiple of a power of two no smaller than
// hi-lo, so it is made of stored complete subtrees, one per set bit of hi-lo,
// largest first; they fold right to left.
func (t *Tree) subtree(lo, hi uint64) Hash {
	k := bits.TrailingZeros64(hi - lo)
	r := t.levels[k][hi>>k-1]
	for hi -= 1 << k; hi > lo; hi -= 1 << k {
		k = bits.TrailingZeros64(hi - lo)
		r = nodeHash(t.levels[k][hi>>k-1], r)
	}
	return r
}

// Proof is an inclusion proof: the leaf at Index is committed by Root, which
// covers Size leaves. Path lists the sibling subtree hashes bottom-up.
// VerifyInclusion checks it offline — nothing beyond the proof itself and
// the expected root is needed.
type Proof struct {
	Index    uint64
	Size     uint64
	LeafHash Hash
	Path     []Hash
	Root     Hash
}

// Prove returns the inclusion proof for the leaf at index (0-based) against
// the tree's current root. The proof and root are taken under one lock, so
// they are mutually consistent even while appends race.
func (t *Tree) Prove(index uint64) (Proof, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := uint64(len(t.levels[0]))
	if index >= n {
		return Proof{}, fmt.Errorf("ledger: proof index %d out of range (size %d)", index, n)
	}
	// Walk the RFC 6962 split from the root down to the leaf, collecting
	// each sibling; the proof lists them bottom-up.
	path := make([]Hash, 0, bits.Len64(n-1))
	for lo, hi := uint64(0), n; hi-lo > 1; {
		k := splitPoint(hi - lo)
		if index < lo+k {
			path = append(path, t.subtree(lo+k, hi))
			hi = lo + k
		} else {
			path = append(path, t.subtree(lo, lo+k))
			lo += k
		}
	}
	slices.Reverse(path)
	return Proof{
		Index:    index,
		Size:     n,
		LeafHash: t.levels[0][index],
		Path:     path,
		Root:     t.subtree(0, n),
	}, nil
}

// splitPoint returns the largest power of two strictly less than n (n >= 2).
func splitPoint(n uint64) uint64 {
	return 1 << (bits.Len64(n-1) - 1)
}

// VerifyInclusion recomputes the root from the proof's leaf hash and path
// and compares it to the proof's root. A caller verifying that a specific
// spend is in the ledger additionally recomputes the leaf hash from the
// record fields it knows (LeafHash of EncodeRecord) and compares it to
// p.LeafHash — the server cannot substitute someone else's record at that
// position without breaking one of the two comparisons.
func VerifyInclusion(p Proof) bool {
	r, ok := rootFromPath(p.LeafHash, p.Index, p.Size, p.Path)
	return ok && r == p.Root
}

// rootFromPath folds the audit path, mirroring the RFC 6962 split Prove
// walks. Each step shortens size-1 by at least one bit, so it ends within 64
// steps whatever the proof claims.
func rootFromPath(leaf Hash, index, size uint64, path []Hash) (Hash, bool) {
	if size == 0 || index >= size {
		return Hash{}, false
	}
	if size == 1 {
		return leaf, len(path) == 0
	}
	if len(path) == 0 {
		return Hash{}, false
	}
	sib := path[len(path)-1]
	k := splitPoint(size)
	if index < k {
		sub, ok := rootFromPath(leaf, index, k, path[:len(path)-1])
		if !ok {
			return Hash{}, false
		}
		return nodeHash(sub, sib), true
	}
	sub, ok := rootFromPath(leaf, index-k, size-k, path[:len(path)-1])
	if !ok {
		return Hash{}, false
	}
	return nodeHash(sib, sub), true
}
