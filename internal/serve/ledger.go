package serve

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"

	"dpbench/internal/ledger"
)

// ledgerMaxBatch bounds the records per group commit. The batcher only
// batches what is already waiting, so the bound matters under heavy
// concurrency: 128 in-flight spends still pay a single fsync.
const ledgerMaxBatch = 128

// durableLedger is the serving layer's durable, tamper-evident spend ledger:
// a Store (WAL in production, injected fakes in tests) behind a group-commit
// Batcher, with every committed record chained into a Merkle Tree in commit
// order. It exists only when the server is configured with LedgerPath or
// LedgerStore; without it the accountants stay purely in-memory, exactly as
// before.
type durableLedger struct {
	store   ledger.Store
	batcher *ledger.Batcher
	tree    *ledger.Tree
	// recovered and truncated summarize startup replay: committed records
	// restored into the accountants, and torn-tail bytes discarded from the
	// WAL (always 0 for non-WAL stores).
	recovered uint64
	truncated int64
}

// openLedger opens the configured store, replays it into the freshly built
// accountants (a restart preserves every committed charge), seeds the Merkle
// tree with the committed history, and starts the group-commit loop. Called
// from New after datasets and budgets are set up, before any request runs.
func (s *Server) openLedger() error {
	if s.cfg.LedgerPath != "" && s.cfg.LedgerStore != nil {
		return fmt.Errorf("serve: both LedgerPath and LedgerStore configured; pick one")
	}
	var store ledger.Store
	switch {
	case s.cfg.LedgerPath != "":
		w, err := ledger.OpenWAL(s.cfg.LedgerPath)
		if err != nil {
			return fmt.Errorf("serve: opening ledger: %w", err)
		}
		store = w
	case s.cfg.LedgerStore != nil:
		store = s.cfg.LedgerStore
	default:
		return nil // in-memory accounting only: the existing default path
	}

	s.ledger = &durableLedger{store: store, tree: &ledger.Tree{}}
	var buf []byte
	err := store.Replay(func(r ledger.Record) error {
		buf = ledger.AppendRecord(buf[:0], r)
		s.ledger.tree.Append(buf)
		a, ok := s.keys[r.Key]
		if !ok {
			if len(s.keys) >= maxMintedKeys {
				// Refusing startup beats silently dropping charges: a
				// dropped charge under-reports spent budget, which is the
				// one direction the ledger must never err in.
				return fmt.Errorf("recovered ledger holds more than %d keys", maxMintedKeys)
			}
			a = newAccountant(s.cfg.KeyBudget)
			s.keys[r.Key] = a
		}
		if err := a.Restore(spendLabel, r.Eps); err != nil {
			return err
		}
		// A dataset that is no longer in the roster keeps its key charges
		// (the caller spent that budget) but has no live accountant to
		// restore into; re-registering it starts a fresh dataset total.
		if ds := s.dsBudgets[r.Dataset]; ds != nil {
			if err := ds.Restore(spendLabel, r.Eps); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		store.Close()
		return fmt.Errorf("serve: recovering ledger: %w", err)
	}
	s.ledger.recovered = s.ledger.tree.Size()
	if w, ok := store.(*ledger.WAL); ok {
		_, s.ledger.truncated = w.Recovered()
	}
	// The committer appends each committed record to the Merkle tree before
	// any submitter is released, so a response carrying seq N implies
	// /v1/proof?seq=N already verifies.
	tree := s.ledger.tree
	var leafBuf []byte
	s.ledger.batcher = ledger.NewBatcher(store, ledgerMaxBatch, func(recs []ledger.Record) {
		for _, r := range recs {
			leafBuf = ledger.AppendRecord(leafBuf[:0], r)
			tree.Append(leafBuf)
		}
	})
	return nil
}

// RecoveryInfo summarizes what startup replay recovered from the durable
// ledger: committed spend records restored, and torn-tail bytes discarded
// from the WAL. ok is false when no durable ledger is configured.
func (s *Server) RecoveryInfo() (records uint64, truncatedBytes int64, ok bool) {
	if s.ledger == nil {
		return 0, 0, false
	}
	return s.ledger.recovered, s.ledger.truncated, true
}

// ledgerErr reports the sticky store failure, if any (nil while healthy or
// when no durable ledger is configured).
func (s *Server) ledgerErr() error {
	if s.ledger == nil || s.ledger.batcher == nil {
		return nil
	}
	return s.ledger.batcher.Err()
}

// Close flushes and stops the durable ledger (no-op for a purely in-memory
// server). The HTTP server should be drained first: a request in flight
// after Close fails closed with 503.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.ledger == nil {
			return
		}
		s.ledger.batcher.Close()
		s.closeErr = s.ledger.store.Close()
	})
	return s.closeErr
}

// RootResponse is the body of GET /v1/root: the ledger's current Merkle root
// and the number of committed spend records it covers. Callers that remember
// a root (or compare roots out of band) can detect a rewritten history.
type RootResponse struct {
	Size uint64 `json:"size"`
	Root string `json:"root"`
}

// ProofResponse is the body of GET /v1/proof?seq=N: an RFC 6962-style
// inclusion proof that the N-th committed spend is in the ledger whose root
// is Root. Leaf is the record's leaf hash — not the record itself, which
// names another caller's API key; the caller that made the spend recomputes
// the leaf hash from its own request (key, dataset, mechanism, epsilon, seq)
// and the canonical record encoding, then folds Path to Root offline.
type ProofResponse struct {
	Seq  uint64   `json:"seq"`
	Size uint64   `json:"size"`
	Leaf string   `json:"leaf"`
	Path []string `json:"path"`
	Root string   `json:"root"`
}

func (s *Server) handleRoot(w http.ResponseWriter, _ *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, "no durable ledger configured (start the server with -ledger)")
		return
	}
	root, size := s.ledger.tree.Root()
	writeJSON(w, http.StatusOK, RootResponse{Size: size, Root: hex.EncodeToString(root[:])})
}

func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, "no durable ledger configured (start the server with -ledger)")
		return
	}
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil || seq == 0 {
		writeError(w, http.StatusBadRequest, "missing or malformed ?seq= parameter (1-based ledger sequence number)")
		return
	}
	p, err := s.ledger.tree.Prove(seq - 1)
	if err != nil {
		writeError(w, http.StatusNotFound, "no committed record with seq %d (ledger size %d)", seq, s.ledger.tree.Size())
		return
	}
	path := make([]string, len(p.Path))
	for i, h := range p.Path {
		path[i] = hex.EncodeToString(h[:])
	}
	writeJSON(w, http.StatusOK, ProofResponse{
		Seq:  seq,
		Size: p.Size,
		Leaf: hex.EncodeToString(p.LeafHash[:]),
		Path: path,
		Root: hex.EncodeToString(p.Root[:]),
	})
}
