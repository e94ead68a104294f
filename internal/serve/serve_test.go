package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func smallConfig() Config {
	return Config{
		Datasets:   []string{"ADULT"},
		Mechanisms: []string{"IDENTITY", "DAWA"},
		Epsilons:   []float64{0.1},
		Domain1D:   256,
		Scale:      10_000,
		Seed:       42,
		KeyBudget:  0.5,
		// Tests pin noise seeds for reproducibility; production servers
		// leave this off and reject seeded requests.
		AllowSeededQueries: true,
	}
}

// postQuery posts body, JSON-encoded unless it is a []byte, to /v1/query.
func postQuery(t testing.TB, s *Server, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := body.([]byte); ok {
		buf.Write(raw)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatalf("encoding request: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", &buf)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeResponse(t testing.TB, rec *httptest.ResponseRecorder) QueryResponse {
	t.Helper()
	var resp QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp
}

func TestServeQueryHappyPath(t *testing.T) {
	s := testServer(t, smallConfig())
	req := QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 255}, {Lo: 0, Hi: 127}, {Lo: 128, Hi: 255}},
		Seed:   7,
	}
	rec := postQuery(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	resp := decodeResponse(t, rec)
	if len(resp.Answers) != 3 {
		t.Fatalf("got %d answers, want 3", len(resp.Answers))
	}
	// The full-domain count should be near the true scale (eps=0.1 noise on
	// 10k tuples), and the two halves must sum to the whole up to float
	// reassociation — answers are prefix-sum post-processing of one release.
	if math.Abs(resp.Answers[0]-10_000) > 5_000 {
		t.Errorf("full-domain answer %v implausibly far from scale 10000", resp.Answers[0])
	}
	if diff := math.Abs(resp.Answers[0] - (resp.Answers[1] + resp.Answers[2])); diff > 1e-6 {
		t.Errorf("halves do not sum to whole: %v + %v vs %v", resp.Answers[1], resp.Answers[2], resp.Answers[0])
	}
	if resp.Spent != 0.1 || math.Abs(resp.Remaining-0.4) > 1e-12 {
		t.Errorf("ledger spent=%v remaining=%v, want 0.1/0.4", resp.Spent, resp.Remaining)
	}

	// A pinned seed makes the release reproducible: a fresh key re-issuing
	// the same request gets bit-identical answers.
	req.Key = "bob"
	again := decodeResponse(t, postQuery(t, s, req))
	for i := range resp.Answers {
		if resp.Answers[i] != again.Answers[i] {
			t.Fatalf("answer %d not reproducible for pinned seed: %v vs %v", i, resp.Answers[i], again.Answers[i])
		}
	}
}

func TestServeBudgetExhaustionReturns429(t *testing.T) {
	cfg := smallConfig()
	cfg.KeyBudget = 0.25 // affords two eps=0.1 queries, not three
	s := testServer(t, cfg)
	req := QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 10}},
	}
	for i := 0; i < 2; i++ {
		if rec := postQuery(t, s, req); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d, want 200; body: %s", i, rec.Code, rec.Body)
		}
	}
	rec := postQuery(t, s, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overspending query: status %d, want 429; body: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "budget exhausted") {
		t.Errorf("429 body should name the exhausted budget, got: %s", rec.Body)
	}

	// The refused request must not have charged the ledger.
	breq := httptest.NewRequest(http.MethodGet, "/v1/budget?key=alice", nil)
	brec := httptest.NewRecorder()
	s.Handler().ServeHTTP(brec, breq)
	var budget BudgetResponse
	if err := json.NewDecoder(brec.Body).Decode(&budget); err != nil {
		t.Fatalf("decoding budget: %v", err)
	}
	if math.Abs(budget.Spent-0.2) > 1e-12 {
		t.Errorf("spent = %v after a refused query, want 0.2", budget.Spent)
	}

	// Other keys are unaffected: budgets are per key, not global.
	req.Key = "bob"
	if rec := postQuery(t, s, req); rec.Code != http.StatusOK {
		t.Errorf("fresh key after another's exhaustion: status %d, want 200; body: %s", rec.Code, rec.Body)
	}
}

func TestServeMalformedRequestsRejected(t *testing.T) {
	s := testServer(t, smallConfig())
	// A query that would be served, padded past the 1 MiB body cap: the cap
	// holds whatever the body holds, so it is refused and charges nothing.
	oversized, err := json.Marshal(QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1, Ranges: []Range{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	oversized = append(oversized, bytes.Repeat([]byte(" "), 2<<20)...)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"missing key", QueryRequest{Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1, Ranges: []Range{{0, 1}}}, http.StatusBadRequest},
		{"unknown cell", QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "NOPE", Epsilon: 0.1, Ranges: []Range{{0, 1}}}, http.StatusNotFound},
		{"unconfigured epsilon", QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.5, Ranges: []Range{{0, 1}}}, http.StatusNotFound},
		{"no queries", QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1}, http.StatusBadRequest},
		{"inverted range", QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1, Ranges: []Range{{10, 5}}}, http.StatusBadRequest},
		{"out of domain", QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1, Ranges: []Range{{0, 256}}}, http.StatusBadRequest},
		{"rects on 1D", QueryRequest{Key: "k", Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1, Rects: []Rect{{0, 0, 1, 1}}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"key": "k", "nope": 1}, http.StatusBadRequest},
		{"not json", "}{", http.StatusBadRequest},
		{"body over 1 MiB", oversized, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postQuery(t, s, tc.body)
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d; body: %s", rec.Code, tc.want, rec.Body)
			}
			// A rejected request never spends budget.
			if rec.Code != http.StatusOK && tc.name != "missing key" {
				breq := httptest.NewRequest(http.MethodGet, "/v1/budget?key=k", nil)
				brec := httptest.NewRecorder()
				s.Handler().ServeHTTP(brec, breq)
				var budget BudgetResponse
				_ = json.NewDecoder(brec.Body).Decode(&budget)
				if budget.Spent != 0 {
					t.Errorf("rejected request charged the ledger: spent = %v", budget.Spent)
				}
			}
		})
	}
}

func TestServe2DRects(t *testing.T) {
	s := testServer(t, Config{
		Datasets:   []string{"GOWALLA"},
		Mechanisms: []string{"UGRID"},
		Epsilons:   []float64{0.2},
		Side2D:     32,
		Scale:      20_000,
		Seed:       3,
		KeyBudget:  1,

		AllowSeededQueries: true,
	})
	req := QueryRequest{
		Key: "carol", Dataset: "GOWALLA", Mechanism: "UGRID", Epsilon: 0.2,
		Rects: []Rect{{Y0: 0, X0: 0, Y1: 31, X1: 31}, {Y0: 4, X0: 4, Y1: 10, X1: 20}},
		Seed:  11,
	}
	rec := postQuery(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	resp := decodeResponse(t, rec)
	if len(resp.Answers) != 2 {
		t.Fatalf("got %d answers, want 2", len(resp.Answers))
	}
	if math.Abs(resp.Answers[0]-20_000) > 10_000 {
		t.Errorf("full-grid answer %v implausibly far from scale 20000", resp.Answers[0])
	}
}

// TestServeSeededQueriesRejectedByDefault pins the production posture: a
// client-pinned noise stream makes a release denoisable, so without
// AllowSeededQueries the request is refused before any budget is charged.
func TestServeSeededQueriesRejectedByDefault(t *testing.T) {
	cfg := smallConfig()
	cfg.AllowSeededQueries = false
	s := testServer(t, cfg)
	req := QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 10}}, Seed: 7,
	}
	rec := postQuery(t, s, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("seeded query: status %d, want 400; body: %s", rec.Code, rec.Body)
	}
	if got := s.lookupSpent("alice"); got != 0 {
		t.Errorf("refused seeded query charged the ledger: spent %v", got)
	}
	// The unseeded form of the same request is served.
	req.Seed = 0
	if rec := postQuery(t, s, req); rec.Code != http.StatusOK {
		t.Errorf("unseeded query: status %d, want 200; body: %s", rec.Code, rec.Body)
	}
}

// TestServeDatasetBudgetBoundsKeyMinting pins the global enforcement: keys
// are minted on first use, so the per-dataset total budget — not the per-key
// one — is what bounds the data's privacy loss against a caller that
// re-keys after every 429.
func TestServeDatasetBudgetBoundsKeyMinting(t *testing.T) {
	cfg := smallConfig()
	cfg.KeyBudget = 0.1   // one query per key
	cfg.TotalBudget = 0.3 // three queries across ALL keys
	s := testServer(t, cfg)
	served := 0
	for i := 0; i < 10; i++ {
		rec := postQuery(t, s, QueryRequest{
			Key: fmt.Sprintf("minted-%d", i), Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
			Ranges: []Range{{Lo: 0, Hi: 10}},
		})
		switch rec.Code {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			if !strings.Contains(rec.Body.String(), "dataset") {
				t.Fatalf("429 should blame the dataset budget, got: %s", rec.Body)
			}
		default:
			t.Fatalf("query %d: status %d; body: %s", i, rec.Code, rec.Body)
		}
	}
	if served != 3 {
		t.Errorf("fresh keys bought %d releases, want exactly TotalBudget/eps = 3", served)
	}
}

// TestServeUnpinnedNoiseStreamsAreIndependent smoke-tests the production
// noise path: two identical unseeded requests must draw different noise (a
// repeat would mean a reused or predictable stream).
func TestServeUnpinnedNoiseStreamsAreIndependent(t *testing.T) {
	cfg := smallConfig()
	cfg.AllowSeededQueries = false
	s := testServer(t, cfg)
	req := QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 255}},
	}
	a := decodeResponse(t, postQuery(t, s, req))
	req.Key = "bob"
	b := decodeResponse(t, postQuery(t, s, req))
	if a.Answers[0] == b.Answers[0] {
		t.Errorf("two unseeded releases drew identical noise: %v", a.Answers[0])
	}
}

// TestServeKeyLengthCapped pins the key-size bound: keys are retained in
// the key table, so an oversized key is rejected before minting anything.
func TestServeKeyLengthCapped(t *testing.T) {
	s := testServer(t, smallConfig())
	long := strings.Repeat("k", maxKeyBytes+1)
	rec := postQuery(t, s, QueryRequest{
		Key: long, Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 1}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d, want 400; body: %s", rec.Code, rec.Body)
	}
	if a := s.lookupAccountant(long); a != nil {
		t.Error("oversized key minted a ledger")
	}
}

// TestServeQueryCountLimit pins the request-hardening cap.
func TestServeQueryCountLimit(t *testing.T) {
	s := testServer(t, smallConfig())
	ranges := make([]Range, 10_001)
	for i := range ranges {
		ranges[i] = Range{Lo: 0, Hi: 1}
	}
	rec := postQuery(t, s, QueryRequest{
		Key: "alice", Dataset: "ADULT", Mechanism: "IDENTITY", Epsilon: 0.1, Ranges: ranges,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized query list: status %d, want 400; body: %s", rec.Code, rec.Body)
	}
	if got := s.lookupSpent("alice"); got != 0 {
		t.Errorf("refused oversized request charged the ledger: spent %v", got)
	}
}

// TestServeGeneratorSeedStableAcrossRosters pins the reproducibility fix:
// which private database a dataset serves depends only on (Seed, its
// position in Datasets), never on how many mechanisms or epsilons are
// registered before it.
func TestServeGeneratorSeedStableAcrossRosters(t *testing.T) {
	base := Config{
		Datasets: []string{"ADULT", "TRACE"}, Mechanisms: []string{"IDENTITY"},
		Epsilons: []float64{0.1}, Domain1D: 64, Scale: 1000, Seed: 9,
		KeyBudget: 5, AllowSeededQueries: true,
	}
	wide := base
	wide.Mechanisms = []string{"IDENTITY", "HB", "DAWA"}
	wide.Epsilons = []float64{0.05, 0.1}

	q := QueryRequest{
		Key: "k", Dataset: "TRACE", Mechanism: "IDENTITY", Epsilon: 0.1,
		Ranges: []Range{{Lo: 0, Hi: 63}}, Seed: 5,
	}
	a := decodeResponse(t, postQuery(t, testServer(t, base), q))
	b := decodeResponse(t, postQuery(t, testServer(t, wide), q))
	if a.Answers[0] != b.Answers[0] {
		t.Errorf("TRACE's private data changed when the mechanism roster grew: %v vs %v", a.Answers[0], b.Answers[0])
	}
}

// TestServeConcurrentClientsSharedPlan exercises the serving hot path under
// -race: many clients hammer ONE precompiled plan concurrently while budget
// charges race on shared and distinct keys. Run with `go test -race`.
func TestServeConcurrentClientsSharedPlan(t *testing.T) {
	cfg := smallConfig()
	cfg.Mechanisms = []string{"DAWA"} // exactly one plan for the cell
	cfg.KeyBudget = 10
	s := testServer(t, cfg)

	const clients, queriesPer = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*queriesPer)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Half the clients share one key (their charges race on one
			// accountant); the rest get private keys.
			key := "shared"
			if c%2 == 1 {
				key = fmt.Sprintf("client-%d", c)
			}
			// Encode/decode inline: t.Fatalf (which the shared helpers use)
			// must not run off the test goroutine, so every failure routes
			// through the errs channel instead.
			for q := 0; q < queriesPer; q++ {
				body, err := json.Marshal(QueryRequest{
					Key: key, Dataset: "ADULT", Mechanism: "DAWA", Epsilon: 0.1,
					Ranges: []Range{{Lo: 0, Hi: 255}, {Lo: 3, Hi: 17}},
				})
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: encode: %v", c, q, err)
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
					errs <- fmt.Errorf("client %d query %d: decode: %v", c, q, err)
					return
				}
				if len(resp.Answers) != 2 {
					errs <- fmt.Errorf("client %d query %d: %d answers", c, q, len(resp.Answers))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared key saw 4 clients x 5 queries x 0.1 eps = 2.0 exactly:
	// racing charges must neither lose nor double-count spends.
	if got := s.lookupSpent("shared"); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("shared key spent %v, want 2.0", got)
	}
}

// BenchmarkServeQuery measures end-to-end request throughput on the serving
// hot path — JSON decode, budget charge, one plan Execute, prefix-sum
// answering, JSON encode — for three bodies: three ranges against a
// precompiled HB plan at n=1024, and the heavy requests of perfbench's serve
// mix, 1000 ranges on that cell and 1000 rectangles against UGRID on
// GOWALLA at 64x64.
func BenchmarkServeQuery(b *testing.B) {
	s := testServer(b, Config{
		Datasets:    []string{"ADULT", "GOWALLA"},
		Mechanisms:  []string{"HB", "UGRID"},
		Epsilons:    []float64{0.1},
		Domain1D:    1024,
		Side2D:      64,
		Scale:       100_000,
		Seed:        1,
		KeyBudget:   1e15, // never exhausts during the benchmark
		TotalBudget: 1e16,
	})
	rng := rand.New(rand.NewSource(1))
	interval := func(n int) (int, int) {
		lo, hi := rng.Intn(n), rng.Intn(n)
		return min(lo, hi), max(lo, hi)
	}
	ranges := make([]Range, 1000)
	for i := range ranges {
		ranges[i].Lo, ranges[i].Hi = interval(1024)
	}
	rects := make([]Rect, 1000)
	for i := range rects {
		rects[i].Y0, rects[i].Y1 = interval(64)
		rects[i].X0, rects[i].X1 = interval(64)
	}
	for _, bc := range []struct {
		name string
		req  QueryRequest
	}{
		{"3ranges", QueryRequest{Dataset: "ADULT", Mechanism: "HB", Ranges: []Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 511}, {Lo: 256, Hi: 767}}}},
		{"1000ranges", QueryRequest{Dataset: "ADULT", Mechanism: "HB", Ranges: ranges}},
		{"1000rects", QueryRequest{Dataset: "GOWALLA", Mechanism: "UGRID", Rects: rects}},
	} {
		bc.req.Key, bc.req.Epsilon = "bench", 0.1
		body, err := json.Marshal(bc.req)
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// lookupSpent reads a key's spend without minting a ledger (0 if unknown).
func (s *Server) lookupSpent(key string) float64 {
	if a := s.lookupAccountant(key); a != nil {
		return a.Spent()
	}
	return 0
}
