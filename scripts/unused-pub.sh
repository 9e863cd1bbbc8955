#!/bin/sh
# Lists each `pub fn|struct|enum|const|type` of one crate that nothing calls: its name
# occurs in no non-test code of the workspace, `tests/`, `examples/` or `benchmark/` other
# than where it is defined. A file's non-test code is everything above its first
# `#[cfg(test)]` (the convention of check-device-buffer-copies.sh); comment lines and
# `pub use` re-exports are not callers. The match is by name, so a hit is certain and a
# miss is not: a method that shares its name with a used one is never listed.
# Exits 1 when anything is listed.
# Usage: scripts/unused-pub.sh CRATE_DIR [repo-root]
set -eu
crate=${1:?usage: scripts/unused-pub.sh CRATE_DIR [repo-root]}
cd "${2:-$(dirname "$0")/..}"
crate=${crate%/}

# Every line that can call something, as "file:line:text".
callers() {
    find crates/*/src src -name '*.rs' | sort | while read -r file; do
        awk '
            /#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /^[[:space:]]*pub use / { reexport = 1 }
            reexport { if (/;/) reexport = 0; next }
            { print FILENAME ":" FNR ":" $0 }
        ' "$file"
    done
    find tests examples benchmark/src crates/*/tests crates/*/examples -name '*.rs' 2>/dev/null |
        sort | while read -r file; do
        awk '!/^[[:space:]]*\/\// { print FILENAME ":" FNR ":" $0 }' "$file"
    done
}

hits=$(callers | awk -v crate="$crate/src/" '
    {
        file = $0; sub(/:.*/, "", file)
        rest = substr($0, length(file) + 2)
        line = rest; sub(/:.*/, "", line)
        text = substr(rest, length(line) + 2)
        defined = ""
        if (match(text, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|const|type) +[A-Za-z_][A-Za-z0-9_]*/)) {
            defined = substr(text, RSTART, RLENGTH)
            sub(/.* /, "", defined)
            if (index(file, crate) == 1 && !(defined in where)) {
                kind = substr(text, RSTART, RLENGTH); sub(/^[[:space:]]*/, "", kind)
                where[defined] = file ":" line ": " kind
                order[++n] = defined
            }
        }
        gsub(/[^A-Za-z0-9_]+/, " ", text)
        count = split(text, words, " ")
        for (i = 1; i <= count; i++)
            if (words[i] != defined) called[words[i]] = 1
    }
    END {
        for (i = 1; i <= n; i++)
            if (!(order[i] in called)) print where[order[i]]
    }
')
if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    exit 1
fi
