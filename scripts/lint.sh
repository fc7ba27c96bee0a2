#!/usr/bin/env bash
# lint.sh — the repo's full static-analysis gate:
#
#   0. gofmt: no tracked Go file outside vendor/ may need reformatting
#   1. go vet (stock toolchain vet)
#   2. cmd/mdsvet (repo-specific determinism/service analyzers + the
#      bundled x/tools passes; see internal/analysis)
#   3. staticcheck, pinned (skipped when not installed: the repo builds
#      offline, so the local gate must not depend on network access)
#   4. govulncheck, pinned (same skip rule)
#
# CI installs the pinned versions and runs all of them. Exits nonzero on
# any finding.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned external linter versions; CI installs exactly these.
STATICCHECK_VERSION="2025.1"
GOVULNCHECK_VERSION="v1.1.4"

echo "==> gofmt"
unformatted=$(git ls-files -z '*.go' ':!:vendor/' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists files that need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> mdsvet"
go run ./cmd/mdsvet ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck ($(staticcheck -version 2>/dev/null || true))"
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipped (CI pins ${STATICCHECK_VERSION})"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck"
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipped (CI pins ${GOVULNCHECK_VERSION})"
fi

echo "lint OK"
