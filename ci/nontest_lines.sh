#!/usr/bin/env bash
# Prints two line counts. The first line is the workspace's non-test line
# count: for every `crates/**/*.rs` outside the integration-test directories
# `crates/*/tests/`, the lines before the file's first `#[cfg(test)]` (all of
# its lines if it has none). Deletions report their net effect with this
# number. The second line, labelled, counts the test code: every line of the
# root `tests/` and of `crates/*/tests/`, plus the lines of every other
# `crates/**/*.rs` from its first `#[cfg(test)]` on. A change that trades
# shipped code for test code reports both sides with it.
set -euo pipefail
cd "$(dirname "$0")/.."

# "<lines before the first #[cfg(test)]> <lines from it on>", summed over
# the awk batches xargs may split the file list into.
read -r shipped unit < <(
  find crates -name '*.rs' -not -path 'crates/*/tests/*' -print0 \
    | sort -z \
    | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { shipped++ }
        !counting { unit++ }
        END { print shipped + 0, unit + 0 }' \
    | awk '{ shipped += $1; unit += $2 } END { print shipped + 0, unit + 0 }'
)
suites=$(find tests crates -name '*.rs' \( -path 'tests/*' -o -path 'crates/*/tests/*' \) -print0 \
  | xargs -0 cat | wc -l)

echo "$shipped"
echo "test-code lines: $((unit + suites))"
