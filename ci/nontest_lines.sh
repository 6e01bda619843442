#!/usr/bin/env bash
# Prints the workspace's non-test line count: for every `crates/**/*.rs`
# outside the integration-test directories `crates/*/tests/`, the lines
# before the file's first `#[cfg(test)]` (all of its lines if it has none).
# Deletions report their net effect with this number.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -name '*.rs' -not -path 'crates/*/tests/*' -print0 \
  | sort -z \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { total++ }
      END { print total + 0 }' \
  | awk '{ sum += $1 } END { print sum + 0 }'
