#!/bin/sh
# Count non-test Rust lines under the ROADMAP rule: every `.rs` file under
# `crates/*/src` and `src/`, `bench_e2e` excluded, up to the file's first
# `#[cfg(test)]` that opens a module (the next non-blank line starts with
# `mod` or `pub mod`). Prints "<lines> <file>" per file, then "<lines> total".
#
# Usage: scripts/nontest_lines.sh [REPO_ROOT]   (default: this script's repo)
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src -name '*.rs' -not -path 'crates/bench/src/bin/bench_e2e/*' |
    LC_ALL=C sort |
    while read -r file; do
        awk -v file="$file" '
            pending && NF {
                if ($0 ~ /^[ \t]*(pub[ \t]+)?mod[ \t]/) { stop = pending - 1; exit }
                pending = 0
            }
            !pending && /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = FNR }
            END { print (stop != "" ? stop : NR), file }
        ' "$file"
    done |
    awk '{ total += $1; print } END { print total, "total" }'
