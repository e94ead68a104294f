package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dpbench/internal/ledger"
)

func durableConfig(walPath string) Config {
	cfg := smallConfig()
	cfg.LedgerPath = walPath
	return cfg
}

func getPath(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestServeDurableRestartPreservesSpentBudget is the headline recovery test:
// charges made through a WAL-backed server survive a restart — a key cannot
// reset its spent epsilon by crashing the server.
func TestServeDurableRestartPreservesSpentBudget(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "spend.wal")
	cfg := durableConfig(walPath)
	cfg.KeyBudget = 0.25 // affords two eps=0.1 queries
	s := testServer(t, cfg)
	req := QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 10}},
	}
	for i := 1; i <= 2; i++ {
		rec := postQuery(t, s, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d; body: %s", i, rec.Code, rec.Body)
		}
		if resp := decodeResponse(t, rec); resp.Seq != uint64(i) {
			t.Fatalf("query %d: seq %d, want %d", i, resp.Seq, i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart": a fresh server on the same WAL. The spent budget must be
	// there before any request runs.
	s2 := testServer(t, cfg)
	defer s2.Close()
	if records, torn, ok := s2.RecoveryInfo(); !ok || records != 2 || torn != 0 {
		t.Fatalf("RecoveryInfo() = (%d, %d, %v), want (2, 0, true)", records, torn, ok)
	}
	var budget BudgetResponse
	if err := json.NewDecoder(getPath(t, s2, "/v1/budget?key=alice").Body).Decode(&budget); err != nil {
		t.Fatal(err)
	}
	if math.Abs(budget.Spent-0.2) > 1e-12 {
		t.Fatalf("spent %v after restart, want 0.2", budget.Spent)
	}
	// The recovered ledger keeps enforcing: the third query still overspends.
	rec := postQuery(t, s2, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("post-restart overspend: status %d, want 429; body: %s", rec.Code, rec.Body)
	}
	// A restart also preserves the DATASET budget, which is what bounds the
	// data's total privacy loss against re-keying callers.
	req.Key = "bob"
	resp := decodeResponse(t, postQuery(t, s2, req))
	if resp.Seq != 3 {
		t.Fatalf("first post-restart commit got seq %d, want 3 (history continued)", resp.Seq)
	}
}

// TestServeDurableCommitFailureFailsClosed drives the fail-closed contract
// with an injected store fault: the request whose commit fails gets a 503
// with no answers, /healthz reports degraded, and every later spend is also
// refused — while read-only endpoints keep working.
func TestServeDurableCommitFailureFailsClosed(t *testing.T) {
	fs := ledger.NewFaultStore(ledger.NewMemStore())
	fs.FailOn = 2
	cfg := smallConfig()
	cfg.LedgerStore = fs
	s := testServer(t, cfg)
	defer s.Close()

	req := QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 10}},
	}
	if rec := postQuery(t, s, req); rec.Code != http.StatusOK {
		t.Fatalf("pre-fault query: status %d; body: %s", rec.Code, rec.Body)
	}
	if rec := getPath(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy /healthz: status %d", rec.Code)
	}

	rec := postQuery(t, s, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed-commit query: status %d, want 503; body: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Error   string    `json:"error"`
		Answers []float64 `json:"answers"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || len(resp.Answers) != 0 {
		t.Fatalf("503 must carry an error and no answers, got %+v", resp)
	}

	h := getPath(t, s, "/healthz")
	if h.Code != http.StatusServiceUnavailable || !strings.Contains(h.Body.String(), "degraded") {
		t.Fatalf("/healthz after store failure: status %d body %q, want 503 degraded", h.Code, h.Body)
	}
	// Stores are fail-closed, so later spends are refused too...
	if rec := postQuery(t, s, req); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query after store failure: status %d, want 503; body: %s", rec.Code, rec.Body)
	}
	// ...while committed state stays inspectable. A failed commit keeps the
	// key's charge (over-reporting is privacy-safe; a refund of a spend that
	// may be durable is not), so alice has paid for the release and for
	// both refused ones.
	rec = getPath(t, s, "/v1/budget?key=alice")
	if rec.Code != http.StatusOK {
		t.Fatalf("read-only endpoint on degraded server: status %d", rec.Code)
	}
	var budget BudgetResponse
	if err := json.NewDecoder(rec.Body).Decode(&budget); err != nil {
		t.Fatal(err)
	}
	if math.Abs(budget.Spent-0.3) > 1e-12 {
		t.Fatalf("spent %v after one release and two failed commits, want 0.3 (a failed commit keeps the charge)", budget.Spent)
	}
	if rec := getPath(t, s, "/v1/root"); rec.Code != http.StatusOK {
		t.Fatalf("/v1/root on degraded server: status %d", rec.Code)
	}
}

// parseHash parses one hex-encoded hash from a proof or root response.
func parseHash(s string) (ledger.Hash, error) {
	var h ledger.Hash
	b, err := hex.DecodeString(s)
	if err == nil && len(b) != len(h) {
		err = fmt.Errorf("%d bytes, want %d", len(b), len(h))
	}
	copy(h[:], b)
	return h, err
}

// decodeHash is parseHash for the test goroutine.
func decodeHash(t *testing.T, s string) ledger.Hash {
	t.Helper()
	h, err := parseHash(s)
	if err != nil {
		t.Fatalf("bad hash %q: %v", s, err)
	}
	return h
}

// verifyOwnProof fetches /v1/proof for seq and checks it the way the client
// that made the spend does, offline: the leaf must be the record it rebuilds
// from its own request, and the path must fold to the proof's root.
func verifyOwnProof(s *Server, req QueryRequest, seq uint64) error {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/proof?seq=%d", seq), nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("proof for seq %d: status %d: %s", seq, rec.Code, rec.Body)
	}
	var pr ProofResponse
	if err := json.NewDecoder(rec.Body).Decode(&pr); err != nil {
		return err
	}
	p := ledger.Proof{Index: seq - 1, Size: pr.Size, LeafHash: ledger.LeafHash(ledger.EncodeRecord(ledger.Record{
		Seq: seq, Key: req.Key, Dataset: req.Dataset, Mechanism: req.Mechanism, Eps: req.Epsilon,
	}))}
	leaf, err := parseHash(pr.Leaf)
	if err != nil || leaf != p.LeafHash {
		return fmt.Errorf("seq %d: proof leaf %q is not this client's spend (%v)", seq, pr.Leaf, err)
	}
	if p.Root, err = parseHash(pr.Root); err != nil {
		return fmt.Errorf("seq %d: proof root: %w", seq, err)
	}
	for _, hs := range pr.Path {
		h, err := parseHash(hs)
		if err != nil {
			return fmt.Errorf("seq %d: proof path: %w", seq, err)
		}
		p.Path = append(p.Path, h)
	}
	if pr.Seq != seq || !ledger.VerifyInclusion(p) {
		return fmt.Errorf("seq %d: inclusion proof (seq %d, size %d) does not verify offline", seq, pr.Seq, pr.Size)
	}
	return nil
}

// TestServeProofVerifiesOffline is the tamper-evidence acceptance test: using
// ONLY the bytes of its own query responses, /v1/proof, and /v1/root, a
// client verifies that its spend is committed in the published ledger — it
// rebuilds the canonical record from fields it already knows, recomputes the
// leaf hash, and folds the proof path to the root.
func TestServeProofVerifiesOffline(t *testing.T) {
	cfg := durableConfig(filepath.Join(t.TempDir(), "spend.wal"))
	s := testServer(t, cfg)
	defer s.Close()

	type spend struct {
		req QueryRequest
		seq uint64
	}
	var spends []spend
	for i, key := range []string{"alice", "bob", "alice", "carol", "dave"} {
		req := QueryRequest{
			Key: key, Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
			Ranges: []Range{{Lo: 0, Hi: 10}},
		}
		resp := decodeResponse(t, postQuery(t, s, req))
		if resp.Seq != uint64(i)+1 {
			t.Fatalf("query %d: seq %d, want %d", i, resp.Seq, i+1)
		}
		spends = append(spends, spend{req, resp.Seq})
	}

	var root RootResponse
	if err := json.NewDecoder(getPath(t, s, "/v1/root").Body).Decode(&root); err != nil {
		t.Fatal(err)
	}
	if root.Size != uint64(len(spends)) {
		t.Fatalf("/v1/root size %d, want %d", root.Size, len(spends))
	}

	for _, sp := range spends {
		rec := getPath(t, s, fmt.Sprintf("/v1/proof?seq=%d", sp.seq))
		if rec.Code != http.StatusOK {
			t.Fatalf("proof for seq %d: status %d; body: %s", sp.seq, rec.Code, rec.Body)
		}
		var pr ProofResponse
		if err := json.NewDecoder(rec.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		// The client knows every field of its own spend, so it reconstructs
		// the canonical record and checks the server's leaf hash against it —
		// the server cannot substitute someone else's record at this seq.
		wantLeaf := ledger.LeafHash(ledger.EncodeRecord(ledger.Record{
			Seq: sp.seq, Key: sp.req.Key, Dataset: sp.req.Dataset,
			Mechanism: sp.req.Mechanism, Eps: sp.req.Epsilon,
		}))
		if decodeHash(t, pr.Leaf) != wantLeaf {
			t.Fatalf("seq %d: proof leaf is not this client's spend", sp.seq)
		}
		proof := ledger.Proof{
			Index:    pr.Seq - 1,
			Size:     pr.Size,
			LeafHash: wantLeaf,
			Root:     decodeHash(t, pr.Root),
		}
		for _, h := range pr.Path {
			proof.Path = append(proof.Path, decodeHash(t, h))
		}
		if !ledger.VerifyInclusion(proof) {
			t.Fatalf("seq %d: inclusion proof does not verify offline", sp.seq)
		}
		// And the proof's root is the published root (same tree size).
		if pr.Size == root.Size && pr.Root != root.Root {
			t.Fatalf("seq %d: proof root %s != published root %s", sp.seq, pr.Root, root.Root)
		}
	}

	if rec := getPath(t, s, "/v1/proof?seq=99"); rec.Code != http.StatusNotFound {
		t.Fatalf("proof past the end: status %d, want 404", rec.Code)
	}
	if rec := getPath(t, s, "/v1/proof?seq=0"); rec.Code != http.StatusBadRequest {
		t.Fatalf("proof for seq 0: status %d, want 400", rec.Code)
	}
}

// TestServeDurableConcurrentSharedKey races 8 clients through the WAL-backed
// group-commit path on one shared key and asserts exact accounting — then
// restarts and asserts the durable history reproduces it exactly. Each client
// proves every seq it is handed at once, while the others keep committing:
// a response's seq is in the Merkle tree before the response is sent.
func TestServeDurableConcurrentSharedKey(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "spend.wal")
	cfg := durableConfig(walPath)
	cfg.Mechanisms = []string{"IDENTITY"}
	cfg.KeyBudget = 10
	cfg.TotalBudget = 100
	s := testServer(t, cfg)

	const clients, queriesPer = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*queriesPer)
	seqs := make(chan uint64, clients*queriesPer)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queriesPer; q++ {
				req := QueryRequest{
					Key: "shared", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
					Ranges: []Range{{Lo: 0, Hi: 10}},
				}
				body, err := json.Marshal(req)
				if err != nil {
					errs <- err
					return
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d query %d: status %d: %s", c, q, rec.Code, rec.Body)
					return
				}
				var resp QueryResponse
				if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
					errs <- err
					return
				}
				seqs <- resp.Seq
				if err := verifyOwnProof(s, req, resp.Seq); err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	close(seqs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every response carried a distinct sequence number in 1..40.
	const total = clients * queriesPer
	seen := make(map[uint64]bool, total)
	for seq := range seqs {
		if seq < 1 || seq > total || seen[seq] {
			t.Fatalf("invalid or duplicate response seq %d", seq)
		}
		seen[seq] = true
	}
	// The published root covers exactly the committed spends.
	var root RootResponse
	if err := json.NewDecoder(getPath(t, s, "/v1/root").Body).Decode(&root); err != nil {
		t.Fatal(err)
	}
	if root.Size != uint64(len(seen)) {
		t.Fatalf("/v1/root size %d, want %d (one record per 200)", root.Size, len(seen))
	}
	want := float64(total) * 0.1
	if got := s.lookupSpent("shared"); math.Abs(got-want) > 1e-9 {
		t.Fatalf("shared key spent %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The durable history reproduces the racing charges exactly.
	s2 := testServer(t, cfg)
	defer s2.Close()
	if records, _, _ := s2.RecoveryInfo(); records != total {
		t.Fatalf("recovered %d records, want %d", records, total)
	}
	if got := s2.lookupSpent("shared"); math.Abs(got-want) > 1e-9 {
		t.Fatalf("shared key spent %v after restart, want %v", got, want)
	}
}

// TestServeWithoutLedgerUnchanged pins the default path: no ledger configured
// means no seq in responses and 404 on the ledger endpoints — the purely
// in-memory behavior, bit-identical to before the durable ledger existed.
func TestServeWithoutLedgerUnchanged(t *testing.T) {
	s := testServer(t, smallConfig())
	rec := postQuery(t, s, QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 10}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d; body: %s", rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), "\"seq\"") {
		t.Errorf("in-memory response leaked a seq field: %s", rec.Body)
	}
	for _, path := range []string{"/v1/root", "/v1/proof?seq=1"} {
		if rec := getPath(t, s, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s without a ledger: status %d, want 404", path, rec.Code)
		}
	}
	// Close is a no-op for an in-memory server.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServeLedgerConfigValidation pins the Config contract: LedgerPath and
// LedgerStore are mutually exclusive.
func TestServeLedgerConfigValidation(t *testing.T) {
	cfg := durableConfig(filepath.Join(t.TempDir(), "spend.wal"))
	cfg.LedgerStore = ledger.NewMemStore()
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted both LedgerPath and LedgerStore")
	}
}

// BenchmarkServeQueryDurable measures the WAL-backed serving path under the
// parallelism that lets group commit amortize its fsync: compare against
// BenchmarkServeQuery (the in-memory baseline) at matching -cpu settings.
func BenchmarkServeQueryDurable(b *testing.B) {
	s := testServer(b, Config{
		Datasets:    []string{"ADULT"},
		Mechanisms:  []string{"HB"},
		Epsilons:    []float64{0.1},
		Domain1D:    1024,
		Scale:       100_000,
		Seed:        1,
		KeyBudget:   1e15, // never exhausts during the benchmark
		TotalBudget: 1e16,
		LedgerPath:  filepath.Join(b.TempDir(), "bench.wal"),
	})
	defer s.Close()
	body, err := json.Marshal(QueryRequest{
		Key: "bench", Dataset: "ADULT", Mechanism: "HB", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 511}, {Lo: 256, Hi: 767}},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.SetParallelism(8) // 8 in-flight requests per core share each fsync
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})
}
