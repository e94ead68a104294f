// Doc.go records the six invariants dpbench-lint enforces at compile time
// and the escape hatches for audited exceptions. The authoritative wording
// of each invariant lives on the Analyzer.Doc of the subpackages; this file
// is the map.
//
// # Why these checks exist
//
// The repo's correctness story rests on properties that used to be checked
// only at runtime: the budget-ledger audit (-audit runs), the golden tests,
// and the Plan-vs-Run bitwise-equivalence tests. A mechanism that draws
// from a raw *rand.Rand, spends under an undeclared ledger label, leaks a
// sub-meter, or iterates a map into an output buffer compiles cleanly and
// fails — at best — in a later runtime audit or a golden diff. The
// analyzers turn that whole bug class into a build failure.
//
// # The six analyzers
//
//   - noisegate (internal/analysis/noisegate): inside dpbench/internal/algo,
//     privacy-relevant randomness must flow through an accountant-backed
//     noise.Meter. Direct math/rand draws, *rand.Rand method calls, and
//     hand-rolled math.Log/math.Exp noise synthesis are flagged, because a
//     draw the accountant never sees is a spend the audit can never prove.
//
//   - determinism (internal/analysis/determinism): in dpbench/internal/algo,
//     internal/tree, internal/core, internal/experiments and internal/ledger,
//     map-range iteration must not write slices, append (unless the collected
//     keys are sorted before use), or accumulate floating point — and
//     time.Now / os.Getenv are banned outright. These are exactly the hazards
//     the bit-identical goldens and the Plan-vs-Run equivalence tests depend
//     on; in the ledger the canonical record encoding doubles as a Merkle
//     leaf, so any ambient input would fork the tree across replicas.
//
//   - internalboundary (internal/analysis/internalboundary): only the facade
//     packages (dpbench, dpbench/release, dpbench/privacy) and dpbench/cmd
//     may import dpbench/internal/...; examples must stay on the public API,
//     and internal packages must not import the facade back. This replaces
//     the old grep-based CI step with a real import-graph check.
//
//   - privtaint (internal/analysis/privtaint): the release invariant
//     itself, checked interprocedurally over dpbench/internal/algo and
//     dpbench/internal/serve with the dataflow engine in
//     internal/analysis/dataflow. Values derived from the private histogram
//     (vec.Vector and anything arithmetic touches) must cross an
//     accountant-metered noise draw before reaching Execute's output
//     buffer, an error string, an HTTP response, the durable budget
//     ledger's commit surface (internal/ledger's AppendRecord /
//     EncodeRecord / Tree.Append / Batcher.Submit / Store.Append — leaves
//     and records are republished verbatim by /v1/root and /v1/proof), or
//     — in Execute-phase and serve code — a branch condition. An example
//     finding:
//
//     php.go:187: privtaint: private value passed to abs feeds a branch
//     condition inside it: data-dependent control flow in the execute
//     phase is an uncharged side channel
//
//     Declared public side information (HayMMCZ16 Principle 7: the dataset
//     scale the grid mechanisms use for layout) is exempted per line with
//     `//dp:public <justification>`; every such annotation is part of the
//     audited privacy argument, not a convenience.
//
//   - allocfree (internal/analysis/allocfree): a function annotated
//     `//dp:hotpath` (Plan.Execute bodies, Meter draw paths, the serve
//     answer path) must not heap-allocate per call, verified against the
//     compiler's own escape analysis (go build -gcflags=-m) rather than a
//     benchmark diff. An example finding:
//
//     grid.go:339: allocfree: heap allocation in //dp:hotpath function
//     Execute: make([]float64, area) escapes to heap — hot paths must
//     reuse plan- or pool-owned buffers
//
//     Interface boxing and nested func literals (the sync.Pool refill
//     idiom) are exempt; allocations in un-annotated helpers are invisible
//     to the span check, so helpers that join the contract must be
//     annotated themselves.
//
//   - epsflow (internal/analysis/epsflow): the budget identity itself,
//     proved symbolically. For every mechanism in dpbench/internal/algo —
//     recognized by its Plan(..., eps float64) (plan, error) / Execute(m
//     *noise.Meter, ...) pair — epsflow abstractly interprets the Plan body
//     with epsilon as a symbolic variable, carries the resulting plan into
//     Execute, and tracks every meter charge as an exact linear expression
//     in eps (big.Rat coefficients, so eps/3 + 2*eps/3 is exactly eps).
//     Sequential charges add, parallel charges (the *Par methods, and the
//     Close of a parallel ResetSub) max, and paths join at branches. On
//     every non-exempt outcome path (exempt: paths that provably return a
//     non-nil error before spending) the accumulated total must equal the
//     declared budget exactly — over-spend, under-spend, and
//     branch-asymmetric spend are all compile failures. A sub-meter still open when Execute returns is a finding,
//     since Close is the only way its spend reaches the parent.
//
//     An example finding, from a plan that charges half its budget up
//     front and then draws at the full rate:
//
//     mech.go:47: epsflow: OverMech over-spends: this path charges
//     3/2*eps of a declared budget eps
//
//     On the same paths epsflow checks the audit's other half: each charge
//     on Execute's root meter, and the label each ResetSub on it closes
//     under, must match an entry of the mechanism's CompositionPlan literal
//     by label and by kind, as noise.Plan.allows does (tree.MeasureInto
//     counts as the parallel "level*" family).
//     Spends inside a sub-meter fold into its one Close charge and are not
//     compared. A label must be a string constant or a
//     labelTable/idxLabel family; anything else is a finding. A //dp:spends
//     function records the labels it charges, and each mechanism that calls
//     it on its root meter checks them. A mechanism whose plan is not a
//     literal gets the sum check only, as the audit does with a nil plan.
//
//     Loops the interpreter cannot close (data-dependent trip counts) are
//     declared with a checked `//dp:spends [par] <expr>` annotation on the
//     line above the loop: the expression (any linear combination of the
//     plan's epsilon fields, e.g. `//dp:spends p.eps / 2`) is what the
//     loop charges in total, `par` marks a parallel-composition loop. The
//     annotation is verified, not trusted — for closable loops the
//     declared total is cross-checked against the proven per-iteration
//     footprint, and for open loops the per-iteration charge must be an
//     epsilon-free multiple of a single stream so the declared total is
//     the only free parameter. epsflow is the static complement of the
//     runtime -audit flag: -audit replays one execution and checks the
//     ledger for the paths that run; epsflow proves the identity over
//     every path of every mechanism at compile time, including error
//     paths and branch arms no audit input exercises.
//
// # Escape hatches
//
// A finding that is understood and deliberately accepted — for example the
// legacy-sampler path planned in ROADMAP item 2, which must keep the exact
// historical draw sequence — is silenced with a comment on the flagged line
// or the line directly above it:
//
//	//lint:allow noisegate legacy sampler keeps the golden draw order
//
// The analyzer name is required; everything after it is the justification
// and should cite why the invariant holds anyway. Allow comments are
// scoped to a single line so an exception can never grow silently — and a
// grant that no longer silences anything is itself reported by the driver
// (pseudo-analyzer "unusedallow"), so stale suppressions cannot accumulate.
//
// The three annotations the new analyzers read are affirmative declarations
// rather than suppressions: `//dp:public <why>` declares a value as audited
// public side information (privtaint), `//dp:hotpath` declares a
// zero-allocation contract the compiler is asked to verify (allocfree), and
// `//dp:spends [par] <expr>` declares — and submits for verification — the
// total epsilon a loop charges (epsflow).
package analysis
