// Package serve turns the benchmark library into a long-running,
// budget-metered DP query service: the `dpbench serve` subcommand.
//
// At startup the server registers the requested datasets, draws one private
// data vector per dataset with the DPBench generator, and precompiles one
// release plan per (dataset, mechanism, epsilon) cell using the shared
// Plan/Execute machinery — so the per-request hot path is exactly one plan
// Execute (noise + inference, no structure building) plus prefix-sum query
// answering. Plans are concurrency-safe and shared by every request.
//
// Budget enforcement is per API key: each key owns a privacy.Accountant
// holding the configured total epsilon. Every query request charges the
// trial's epsilon to the caller's ledger before any noise is drawn; a
// request that would overspend is refused with HTTP 429 and the ledger is
// left unchanged, so a key's releases always compose to at most its total
// budget. Answers computed from one release are post-processing and carry
// no extra cost beyond the release's epsilon.
package serve

import (
	cryptorand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"

	"dpbench/internal/algo"
	"dpbench/internal/dataset"
	"dpbench/internal/ledger"
	"dpbench/internal/noise"
	"dpbench/internal/workload"
)

// Request hardening bounds: a query request is fully decoded before any
// budget is charged, so both the body size and the query count must be
// capped to keep resource use bounded for unauthenticated callers.
const (
	maxRequestBytes      = 1 << 20 // 1 MiB of JSON
	maxQueriesPerRequest = 10_000
	// maxMintedKeys caps the key table: keys are minted on first use for
	// unauthenticated callers, so without a cap a request flood of fresh
	// key strings would grow the accountant map until the process OOMs.
	maxMintedKeys = 100_000
	// maxKeyBytes caps the length of an API key string: keys are retained
	// verbatim in the key table (and in ledger records), so without a cap a
	// flood of megabyte-long key strings would exhaust memory long before
	// maxMintedKeys trips.
	maxKeyBytes = 256
)

// chachaSource adapts math/rand/v2's ChaCha8 — a cryptographically strong
// stream cipher — to the math/rand Source64 the noise meter consumes. Each
// request gets its own source seeded with 32 fresh bytes from crypto/rand,
// so no request's noise stream is derivable from any other's, and observing
// some outputs of a stream (e.g. the exact noise on a known-zero cell) does
// not predict its remaining outputs the way an invertible mixer would.
type chachaSource struct{ c *randv2.ChaCha8 }

func (s chachaSource) Uint64() uint64 { return s.c.Uint64() }
func (s chachaSource) Int63() int64   { return int64(s.c.Uint64() >> 1) }
func (s chachaSource) Seed(int64)     {} // crypto-seeded at construction; reseeding unsupported

// newCryptoRand returns a fresh cryptographically seeded noise RNG.
func newCryptoRand() (*rand.Rand, error) {
	var key [32]byte
	if _, err := cryptorand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("seeding noise stream: %w", err)
	}
	return rand.New(chachaSource{c: randv2.NewChaCha8(key)}), nil
}

// Config describes the cells the server precompiles and the per-key budget
// it enforces.
type Config struct {
	// Datasets names the benchmark datasets to register (1D and 2D mix
	// allowed). Empty is an error: a query service with nothing to query.
	Datasets []string
	// Mechanisms names the release mechanisms to precompile. Each must
	// support the dimensionality of every registered dataset it is paired
	// with (non-matching pairs are skipped).
	Mechanisms []string
	// Epsilons lists the per-query privacy budgets offered. Every value
	// must be positive.
	Epsilons []float64
	// Domain1D is the 1D domain size (default 1024).
	Domain1D int
	// Side2D is the 2D grid side (default 64).
	Side2D int
	// Scale is the number of tuples drawn per dataset (default 100000).
	Scale int
	// Seed fixes the data generator, so a server instance serves a
	// reproducible private database. Noise streams are NOT derived from it:
	// each request draws a fresh crypto/rand-seeded ChaCha8 stream, because
	// a noise stream a client can predict (or recover from one release) can
	// be subtracted back out of every release.
	Seed int64
	// KeyBudget is the total epsilon each API key may spend (default 1.0).
	KeyBudget float64
	// TotalBudget bounds the total epsilon spent per dataset across ALL
	// keys (default 10 * KeyBudget). Keys are minted on first use, so
	// without a global cap a caller could re-key forever and the per-key
	// enforcement would bound nothing; once a dataset's total is exhausted
	// every further query on it is refused.
	TotalBudget float64
	// AllowSeededQueries permits requests to pin their noise stream via
	// QueryRequest.Seed. This makes releases reproducible — and therefore
	// removable — by anyone who knows the seed, so it exists for tests and
	// replay tooling only; the default (false) rejects seeded requests.
	AllowSeededQueries bool
	// LedgerPath, when non-empty, backs every budget charge with an
	// append-only, tamper-evident WAL at this path (the -ledger CLI flag):
	// spends are group-committed with an fsync before any noise is drawn,
	// startup replays the log so a restart preserves every charge, and
	// committed spends are chained into a Merkle root published at /v1/root
	// with per-record inclusion proofs at /v1/proof. On a store write
	// failure the server fails closed: the request gets 503 and /healthz
	// reports degraded. Empty (the default) keeps accounting purely
	// in-memory — the existing behavior, bit-identical.
	LedgerPath string
	// LedgerStore injects a ledger store directly (tests, fault injection,
	// alternative backends). Mutually exclusive with LedgerPath.
	LedgerStore ledger.Store
}

// cell is one precompiled (dataset, mechanism, epsilon) release pipeline.
type cell struct {
	dataset string
	mech    string
	eps     float64
	dims    []int
	plan    algo.Plan
	scale   float64
	// scratch recycles the per-request buffers — the estimate vector and
	// the prefix-sum/summed-area table answers are read from — so the
	// request hot path performs no domain-sized allocations.
	scratch sync.Pool
}

// queryScratch holds one request's working buffers: est receives the plan's
// release, table its prefix sums (len n+1 for 1D, (ny+1)*(nx+1) for 2D).
type queryScratch struct {
	est   []float64
	table []float64
}

// cellKey names a precompiled cell; a request looks its cell up by the
// dataset, mechanism and epsilon it asks for.
type cellKey struct {
	dataset, mech string
	eps           float64
}

// spendLabel is the label of every charge on a key's or a dataset's
// accountant. Serve keeps no per-spend history, so the label names nothing:
// the durable ledger's record says what was spent, by whom and on what.
const spendLabel = "query"

// newAccountant returns a serving accountant for a positive total. It keeps
// only O(1) running totals: a per-spend history would grow by one Spend per
// request for the life of the process, and nothing in serve reads one.
func newAccountant(total float64) *noise.Accountant {
	a, _ := noise.NewAccountant(total) // totals validated positive in New
	a.SetRetainHistory(false)
	return a
}

// Server answers DP range-query workloads over HTTP/JSON against
// precompiled release plans, enforcing a per-API-key privacy budget.
type Server struct {
	cfg   Config
	cells map[cellKey]*cell

	mu   sync.Mutex
	keys map[string]*noise.Accountant
	// dsBudgets caps the epsilon spent per dataset across all keys, so
	// minting fresh keys cannot buy unbounded releases of the same data.
	dsBudgets map[string]*noise.Accountant

	// ledger is the durable, tamper-evident spend store (nil when the
	// server runs with purely in-memory accounting, the default).
	ledger    *durableLedger
	closeOnce sync.Once
	closeErr  error

	mux *http.ServeMux
}

// New registers the configured datasets, generates their private data
// vectors, and precompiles every (dataset, mechanism, epsilon) plan. It
// fails fast — at startup, not at query time — on unknown dataset or
// mechanism names, non-positive epsilons, or a roster that yields no cells.
func New(cfg Config) (*Server, error) {
	if len(cfg.Datasets) == 0 {
		return nil, fmt.Errorf("serve: no datasets registered; pass at least one of %s", strings.Join(datasetNames(), ", "))
	}
	if len(cfg.Mechanisms) == 0 {
		return nil, fmt.Errorf("serve: no mechanisms registered; pass at least one of %s", strings.Join(algo.Names(), ", "))
	}
	if len(cfg.Epsilons) == 0 {
		return nil, fmt.Errorf("serve: no epsilons configured")
	}
	for _, e := range cfg.Epsilons {
		if e <= 0 {
			return nil, fmt.Errorf("serve: non-positive epsilon %v", e)
		}
	}
	if cfg.Domain1D <= 0 {
		cfg.Domain1D = 1024
	}
	if cfg.Side2D <= 0 {
		cfg.Side2D = 64
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 100_000
	}
	if cfg.KeyBudget <= 0 {
		cfg.KeyBudget = 1.0
	}
	if cfg.TotalBudget <= 0 {
		cfg.TotalBudget = 10 * cfg.KeyBudget
	}
	if cfg.TotalBudget < cfg.KeyBudget {
		return nil, fmt.Errorf("serve: total per-dataset budget %v is below the per-key budget %v; no key could ever spend its allowance", cfg.TotalBudget, cfg.KeyBudget)
	}
	for _, e := range cfg.Epsilons {
		if e > cfg.KeyBudget {
			return nil, fmt.Errorf("serve: epsilon %v exceeds the per-key budget %v; no key could ever afford it", e, cfg.KeyBudget)
		}
	}

	s := &Server{cfg: cfg, cells: map[cellKey]*cell{}, keys: map[string]*noise.Accountant{}, dsBudgets: map[string]*noise.Accountant{}}
	for di, dsName := range cfg.Datasets {
		ds, err := dataset.ByName(dsName)
		if err != nil {
			return nil, fmt.Errorf("serve: registering dataset: %w", err)
		}
		if _, dup := s.dsBudgets[ds.Name]; dup {
			return nil, fmt.Errorf("serve: dataset %s listed twice", ds.Name)
		}
		s.dsBudgets[ds.Name] = newAccountant(cfg.TotalBudget)
		var dims []int
		if ds.Dim == 1 {
			dims = []int{cfg.Domain1D}
		} else {
			dims = []int{cfg.Side2D, cfg.Side2D}
		}
		// The generator seed depends only on the dataset's position in the
		// roster, so adding mechanisms or epsilons never changes which
		// private database a dataset serves.
		genRNG := rand.New(rand.NewSource(cfg.Seed + int64(di)))
		x, err := ds.Generate(genRNG, cfg.Scale, dims...)
		if err != nil {
			return nil, fmt.Errorf("serve: generating %s: %w", ds.Name, err)
		}
		// Workload-aware mechanisms (MWEM, GreedyH) plan against the
		// canonical workload for the dimensionality; answers to ad-hoc
		// request ranges are post-processing of the released estimate.
		var w *workload.Workload
		if ds.Dim == 1 {
			w = workload.Prefix(dims[0])
		} else {
			w = workload.RandomRange2D(dims[1], dims[0], 512, rand.New(rand.NewSource(cfg.Seed)))
		}
		for _, mechName := range cfg.Mechanisms {
			m, err := algo.New(mechName)
			if err != nil {
				return nil, fmt.Errorf("serve: registering mechanism: %w", err)
			}
			if !m.Supports(ds.Dim) {
				continue // e.g. a 2D-only grid mechanism paired with a 1D dataset
			}
			for _, eps := range cfg.Epsilons {
				p, err := m.Plan(x, w, eps)
				if err != nil {
					return nil, fmt.Errorf("serve: planning %s on %s at eps=%v: %w", mechName, ds.Name, eps, err)
				}
				n := x.N()
				tableLen := n + 1
				if len(dims) == 2 {
					tableLen = (dims[0] + 1) * (dims[1] + 1)
				}
				c := &cell{dataset: ds.Name, mech: mechName, eps: eps, dims: dims, plan: p}
				// Served by /v1/cells so clients can size workloads: the
				// dataset scale is declared public side information, the same
				// audited exemption the Pside mechanisms rely on.
				c.scale = x.Scale() //dp:public dataset scale is declared side information (HayMMCZ16 Principle 7)
				c.scratch.New = func() any {
					return &queryScratch{est: make([]float64, n), table: make([]float64, tableLen)}
				}
				s.cells[cellKey{ds.Name, mechName, eps}] = c
			}
		}
	}
	if len(s.cells) == 0 {
		return nil, fmt.Errorf("serve: no (dataset, mechanism) pair is dimension-compatible; nothing to serve")
	}

	// Durable ledger (optional): open, replay into the accountants built
	// above, and start the group-commit loop — before the mux exists, so no
	// request can race recovery.
	if err := s.openLedger(); err != nil {
		return nil, err
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/mechanisms", s.handleMechanisms)
	s.mux.HandleFunc("GET /v1/cells", s.handleCells)
	s.mux.HandleFunc("GET /v1/budget", s.handleBudget)
	s.mux.HandleFunc("GET /v1/root", s.handleRoot)
	s.mux.HandleFunc("GET /v1/proof", s.handleProof)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// handleHealthz reports liveness — and, when a durable ledger is configured,
// whether the store has failed. A degraded server still answers read-only
// endpoints but fails every spend closed with 503, so health checkers can
// rotate it out while committed state stays inspectable.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := s.ledgerErr(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: ledger store failed: %v\n", err)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func datasetNames() []string {
	var out []string
	for _, d := range dataset.Registry1D() {
		out = append(out, d.Name)
	}
	for _, d := range dataset.Registry2D() {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// accountant returns the API key's budget ledger, creating it with the
// configured total on first use. It fails once the key table is full, so a
// flood of fresh key strings cannot grow memory without bound (the
// per-dataset TotalBudget is what bounds privacy loss; this bounds RAM).
func (s *Server) accountant(key string) (*noise.Accountant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.keys[key]
	if !ok {
		if len(s.keys) >= maxMintedKeys {
			return nil, fmt.Errorf("key table full: %d keys already minted", maxMintedKeys)
		}
		a = newAccountant(s.cfg.KeyBudget)
		s.keys[key] = a
	}
	return a, nil
}

// lookupAccountant returns the key's ledger without minting one, for
// read-only endpoints.
func (s *Server) lookupAccountant(key string) *noise.Accountant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[key]
}

// QueryRequest is the body of POST /v1/query. Exactly one of Ranges (1D) or
// Rects (2D) must match the dataset's dimensionality.
type QueryRequest struct {
	// Key is the caller's API key; its privacy budget pays for the query.
	Key string `json:"key"`
	// Dataset and Mechanism select the precompiled cell.
	Dataset   string `json:"dataset"`
	Mechanism string `json:"mechanism"`
	// Epsilon is the privacy budget of this release; must be one of the
	// server's configured epsilons.
	Epsilon float64 `json:"epsilon"`
	// Ranges are inclusive 1D [lo, hi] cell ranges.
	Ranges []Range `json:"ranges,omitempty"`
	// Rects are inclusive 2D rectangles (rows [y0,y1], columns [x0,x1]).
	Rects []Rect `json:"rects,omitempty"`
	// Seed, when non-zero, pins the noise stream for reproducible releases.
	// Accepted only when the server runs with AllowSeededQueries (tests,
	// replay tooling): a predictable noise stream can be subtracted back
	// out of the release, so production servers reject it. Zero draws an
	// unpredictable server-side stream.
	Seed int64 `json:"seed,omitempty"`
}

// Range is an inclusive 1D range query [Lo, Hi].
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Rect is an inclusive 2D rectangle query over rows [Y0, Y1] and columns
// [X0, X1].
type Rect struct {
	Y0 int `json:"y0"`
	X0 int `json:"x0"`
	Y1 int `json:"y1"`
	X1 int `json:"x1"`
}

// QueryResponse is the body of a successful /v1/query call.
type QueryResponse struct {
	Dataset   string  `json:"dataset"`
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	// Answers holds one differentially private count per requested query,
	// in request order.
	Answers []float64 `json:"answers"`
	// Spent and Remaining report the key's ledger after this release.
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
	// Seq is the 1-based durable-ledger sequence number of this release's
	// committed spend; pass it to GET /v1/proof?seq=N for an inclusion proof.
	// Omitted when the server runs without a durable ledger.
	Seq uint64 `json:"seq,omitempty"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeQueryRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	if req.Key == "" {
		writeError(w, http.StatusBadRequest, "missing api key")
		return
	}
	if len(req.Key) > maxKeyBytes {
		writeError(w, http.StatusBadRequest, "api key exceeds %d bytes", maxKeyBytes)
		return
	}
	if req.Seed != 0 && !s.cfg.AllowSeededQueries {
		writeError(w, http.StatusBadRequest,
			"seeded queries are disabled: a client-pinned noise stream makes the release denoisable (start the server with -allow-seeded-queries for test/replay use)")
		return
	}
	if q := len(req.Ranges) + len(req.Rects); q > maxQueriesPerRequest {
		writeError(w, http.StatusBadRequest, "%d queries in one request exceeds the limit of %d", q, maxQueriesPerRequest)
		return
	}
	c, ok := s.cells[cellKey{req.Dataset, req.Mechanism, req.Epsilon}]
	if !ok {
		writeError(w, http.StatusNotFound,
			"no precompiled cell for dataset=%q mechanism=%q epsilon=%g; see /v1/cells", req.Dataset, req.Mechanism, req.Epsilon)
		return
	}
	if err := validateQueries(&req, c.dims); err != nil {
		writeError(w, http.StatusBadRequest, "malformed workload: %v", err)
		return
	}

	// Charge BEFORE drawing noise: a refused request must not release
	// anything. The key's ledger is charged first (the caller's own
	// allowance) and, with a durable ledger, committed; then the dataset's
	// global ledger, which is what actually bounds the data's total privacy
	// loss — keys are minted on first use, so without it a caller could
	// re-key forever. If a later step fails after the key charge succeeded,
	// the key keeps the charge: over-reporting a spend is always
	// privacy-safe, and a refund of a maybe-durable spend is not. Spend is
	// atomic on each accountant, so racing requests cannot jointly overspend
	// either ledger.
	acct, err := s.accountant(req.Key)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "cannot mint key %q: %v", req.Key, err)
		return
	}
	if err := acct.Spend(spendLabel, req.Epsilon); err != nil {
		if errors.Is(err, noise.ErrBudgetExhausted) {
			writeError(w, http.StatusTooManyRequests,
				"privacy budget exhausted for key %q: spent %g of %g, query needs %g", req.Key, acct.Spent(), s.cfg.KeyBudget, req.Epsilon)
			return
		}
		writeError(w, http.StatusBadRequest, "budget charge failed: %v", err)
		return
	}
	var seq uint64
	if s.ledger != nil {
		seq, err = s.ledger.batcher.Submit(ledger.Record{Key: req.Key, Dataset: c.dataset, Mechanism: c.mech, Eps: c.eps})
		if err != nil {
			// Fail closed: the spend could not be made durable, so no noise
			// may be drawn against it — a crash would lose the only evidence
			// the budget was spent. /healthz now reports degraded.
			writeError(w, http.StatusServiceUnavailable, "budget commit failed, no release performed (server degraded): %v", err)
			return
		}
	}
	if err := s.dsBudgets[c.dataset].Spend(spendLabel, req.Epsilon); err != nil {
		if errors.Is(err, noise.ErrBudgetExhausted) {
			writeError(w, http.StatusTooManyRequests,
				"dataset %q has exhausted its total privacy budget (%g across all keys); no further releases", c.dataset, s.cfg.TotalBudget)
			return
		}
		writeError(w, http.StatusBadRequest, "budget charge failed: %v", err)
		return
	}

	// Seed-pinned requests (test/replay mode only, gated above) use the
	// full-64-bit SplitMix64 stream; production requests draw a fresh
	// crypto-seeded ChaCha8 stream, unrecoverable from any release.
	var rng *rand.Rand
	if req.Seed != 0 {
		rng = noise.NewRand(uint64(req.Seed))
	} else {
		var rngErr error
		if rng, rngErr = newCryptoRand(); rngErr != nil {
			writeError(w, http.StatusInternalServerError, "%v", rngErr)
			return
		}
	}
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	if err := c.plan.Execute(noise.NewMeter(req.Epsilon, rng), sc.est); err != nil {
		// The budget was charged but no release happened; refund by
		// resetting is unsound (ledger history), so surface the failure.
		writeError(w, http.StatusInternalServerError, "mechanism execution failed: %v", err)
		return
	}
	answers := answerQueries(&req, c.dims, sc)

	writeJSON(w, http.StatusOK, QueryResponse{
		Dataset:   c.dataset,
		Mechanism: c.mech,
		Epsilon:   c.eps,
		Answers:   answers,
		Spent:     acct.Spent(),
		Remaining: acct.Remaining(),
		Seq:       seq,
	})
}

// answerQueries computes every requested query from the released estimate —
// the answers slice is the only per-request allocation on this path.
// Queries were validated before any budget was charged.
func answerQueries(req *QueryRequest, dims []int, sc *queryScratch) []float64 {
	fillAnswerTable(dims, sc)
	if len(dims) == 1 {
		table := sc.table
		answers := make([]float64, len(req.Ranges))
		for i, q := range req.Ranges {
			answers[i] = table[q.Hi+1] - table[q.Lo]
		}
		return answers
	}
	stride := dims[1] + 1
	sat := sc.table
	answers := make([]float64, len(req.Rects))
	for i, q := range req.Rects {
		answers[i] = sat[(q.Y1+1)*stride+q.X1+1] - sat[q.Y0*stride+q.X1+1] -
			sat[(q.Y1+1)*stride+q.X0] + sat[q.Y0*stride+q.X0]
	}
	return answers
}

// fillAnswerTable rebuilds the prefix sums (1D) or the summed-area table
// (2D) of the released estimate into the pooled scratch. This is the
// domain-sized piece of per-request answering and must not allocate. Row 0
// and column 0 of the table stay zero from construction.
//
//dp:hotpath
func fillAnswerTable(dims []int, sc *queryScratch) {
	workload.FillTable(sc.table, sc.est, dims)
}

// validateQueries checks the request's queries against the cell's domain, so
// a malformed workload is rejected before any budget is charged.
func validateQueries(req *QueryRequest, dims []int) error {
	switch len(dims) {
	case 1:
		if len(req.Rects) > 0 {
			return fmt.Errorf("dataset is 1D; use \"ranges\", not \"rects\"")
		}
		if len(req.Ranges) == 0 {
			return fmt.Errorf("no queries: provide at least one range")
		}
		n := dims[0]
		for i, q := range req.Ranges {
			if q.Lo < 0 || q.Hi >= n || q.Lo > q.Hi {
				return fmt.Errorf("range %d: [%d, %d] is not a valid inclusive range over [0, %d)", i, q.Lo, q.Hi, n)
			}
		}
		return nil
	case 2:
		if len(req.Ranges) > 0 {
			return fmt.Errorf("dataset is 2D; use \"rects\", not \"ranges\"")
		}
		if len(req.Rects) == 0 {
			return fmt.Errorf("no queries: provide at least one rect")
		}
		ny, nx := dims[0], dims[1]
		for i, q := range req.Rects {
			if q.Y0 < 0 || q.Y1 >= ny || q.Y0 > q.Y1 || q.X0 < 0 || q.X1 >= nx || q.X0 > q.X1 {
				return fmt.Errorf("rect %d: [%d,%d]x[%d,%d] is not a valid inclusive rectangle over %dx%d", i, q.Y0, q.Y1, q.X0, q.X1, ny, nx)
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported dimensionality %d", len(dims))
	}
}

// CellInfo describes one precompiled cell for GET /v1/cells.
type CellInfo struct {
	Dataset   string  `json:"dataset"`
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	Dims      []int   `json:"dims"`
	Scale     float64 `json:"scale"`
}

func (s *Server) handleCells(w http.ResponseWriter, _ *http.Request) {
	out := make([]CellInfo, 0, len(s.cells))
	for _, c := range s.cells {
		out = append(out, CellInfo{Dataset: c.dataset, Mechanism: c.mech, Epsilon: c.eps, Dims: c.dims, Scale: c.scale})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		if out[i].Mechanism != out[j].Mechanism {
			return out[i].Mechanism < out[j].Mechanism
		}
		return out[i].Epsilon < out[j].Epsilon
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMechanisms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, algo.Describe())
}

// BudgetResponse is the body of GET /v1/budget.
type BudgetResponse struct {
	Key       string  `json:"key"`
	Total     float64 `json:"total"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing ?key= parameter")
		return
	}
	// Read-only: an unknown key reports a full budget without minting a
	// ledger, so probing this endpoint cannot grow the key table.
	spent := 0.0
	if a := s.lookupAccountant(key); a != nil {
		spent = a.Spent()
	}
	writeJSON(w, http.StatusOK, BudgetResponse{Key: key, Total: s.cfg.KeyBudget, Spent: spent, Remaining: s.cfg.KeyBudget - spent})
}
