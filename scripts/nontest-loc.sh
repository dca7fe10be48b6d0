#!/bin/sh
# Non-test lines of every crate: for each crates/*/src/**/*.rs, the lines
# before the file's first `#[cfg(test)]` (the whole file when it has
# none), summed per crate and in total. ROADMAP's size targets and every
# "net-negative" claim in CHANGES.md are this script's output.
#
# usage: scripts/nontest-loc.sh [repo root, default: the script's parent]
cd "${1:-$(dirname "$0")/..}" || exit 1
total=0
for crate in crates/*/; do
    lines=$(find "${crate}src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' {} +)
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
