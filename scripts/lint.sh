#!/usr/bin/env bash
# Run the full lint surface: the dpbench invariant analyzers, then
# staticcheck and govulncheck when they are installed. CI's lint job runs
# exactly this script; locally the optional tools are skipped rather than
# failing, so the script works in offline environments with nothing beyond
# the go toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/dpbench-lint ./...

if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "lint.sh: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "lint.sh: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi
