#!/bin/sh
# Non-test lines of every crate: for each crates/*/src/**/*.rs, the lines
# before the file's first `#[cfg(test)]` (the whole file when it has
# none), summed per crate and in total, then the five largest files by
# the same count. ROADMAP's size targets and every "net-negative" claim
# in CHANGES.md are this script's output.
#
# usage: scripts/nontest-loc.sh [repo root, default: the script's parent]
cd "${1:-$(dirname "$0")/..}" || exit 1
per_file() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { if (n != "") print n, file; file = FILENAME; n = 0; counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { if (n != "") print n, file }' {} +
}
total=0
for crate in crates/*/; do
    lines=$(per_file "${crate}src" | awk '{ n += $1 } END { print n + 0 }')
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
echo
echo "largest files:"
per_file crates/*/src | sort -rn | head -5 | while read -r n file; do
    printf '%6d  %s\n' "$n" "$file"
done
