// Package ledger provides the durable, tamper-evident budget ledger behind
// the serving layer's privacy accountants.
//
// The in-process accountants in internal/noise are authoritative for budget
// arithmetic but amnesiac: a process restart refunds every caller's epsilon,
// and a crash between charging and answering can spend budget without any
// durable trace. This package closes that gap with four composable pieces:
//
//   - Store: the pluggable commit log interface. Append durably commits a
//     batch of spend records and assigns them contiguous sequence numbers;
//     Replay streams every committed record back in order. MemStore is the
//     in-memory reference implementation (tests, single-process tooling);
//     WAL is the production backend.
//
//   - WAL: an append-only write-ahead log file. Each record is framed as
//     [u32 payload length][u32 CRC32-C][payload], where the payload is the
//     record's canonical binary encoding (EncodeRecord); every Append ends
//     with one fsync, so a record handed back to a caller is on disk. Opening
//     a WAL recovers it: frames are validated in order, a torn final frame
//     (the signature of a crash mid-write) is truncated away, and states no
//     crash can produce — a CRC-valid frame whose sequence number does not
//     match its position, or damaged bytes with an intact frame after them
//     (a crash tears only the final append) — fail recovery as evidence of
//     tampering instead of silently truncating committed spends.
//
//   - Batcher: an asynchronous group-commit loop in front of a Store. Callers
//     Submit one record and block until it is durable; the committer drains
//     every waiting submission into a single Append (one fsync per batch, not
//     per record) and completes each waiter with its assigned sequence
//     number. A store failure is sticky and fail-closed: the failed batch and
//     every later submission return the error, so no caller ever proceeds on
//     a spend that was not durably recorded.
//
//   - Tree: an RFC 6962-style Merkle tree over the canonical record
//     encodings, appended in commit order. The running root commits the
//     entire spend history; Prove returns an inclusion proof for any
//     committed record that VerifyInclusion checks offline against a
//     published root, so any caller can verify that their charge — and
//     everyone else's — is in the ledger the server claims to enforce. It
//     stores every complete subtree's hash (about 64 bytes per record), so
//     Root and Prove cost O(log n) and do not stall a concurrent Append.
//
// FaultStore wraps any Store and fails or stalls the Nth commit, driving the
// fail-closed paths (HTTP 503, degraded /healthz) in serving-layer tests.
//
// Records deliberately carry no timestamps: recovery must rebuild the exact
// accountant state from the log alone, and the determinism analyzer bans
// wall-clock reads in replayed code paths.
package ledger
