#!/usr/bin/env bash
# Prints the two size counts of the code base, over the tracked files:
#   non-test lines: each `.rs` file up to its first `#[cfg(test)]`, plus every
#     `.sh`, `.yml`, `.json` and `.toml` file; anything under a `tests/`
#     directory or `perfbench/` is left out;
#   public items: `pub fn|struct|enum|trait|type|const|static|mod`
#     declarations in the non-test part of the library sources (binaries
#     under `src/bin/` and the vendored stubs under `crates/vendor/` left out).
# Usage: bash scripts/size.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

files=$(git ls-files -- '*.rs' '*.sh' '*.yml' '*.json' '*.toml' |
    grep -v -E '(^|/)tests/|^perfbench/')

# Lines of a file up to (not including) its first `#[cfg(test)]`.
non_test() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

lines=0
for f in $files; do
    case "$f" in
    *.rs) n=$(non_test "$f" | wc -l) ;;
    *) n=$(wc -l <"$f") ;;
    esac
    lines=$((lines + n))
done

items=0
for f in $(printf '%s\n' $files | grep -E '\.rs$' | grep -v -E '/bin/|^crates/vendor/'); do
    n=$(non_test "$f" |
        grep -c -E '^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod) ' || true)
    items=$((items + n))
done

echo "non-test lines: $lines"
echo "public items:   $items"
