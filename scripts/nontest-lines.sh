#!/bin/sh
# Non-test Rust lines per crate and in total: every tracked `.rs` file
# outside `tests/` and `benchmark/`, each cut at its first `#[cfg(test)]`.
# Run from the repository root; simplicity claims cite this count.
git ls-files '*.rs' | grep -vE '^(tests|benchmark)/' | while read -r f; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    case "$f" in
        crates/*) c=$(echo "$f" | cut -d/ -f2) ;;
        *) c=$(echo "$f" | cut -d/ -f1) ;;
    esac
    echo "$c $n"
done | awk '{ s[$1] += $2; t += $2 } END { for (c in s) printf "%-20s %6d\n", c, s[c]; printf "%-20s %6d\n", "total", t }' | sort
