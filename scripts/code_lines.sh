#!/bin/sh
# Code lines per file and in total: lines up to the first `#[cfg(test)]`,
# minus blank lines and `//` comment lines.
# usage: scripts/code_lines.sh DIR...   (e.g. crates/*/src shims/*/src)
find "$@" -name '*.rs' | sort | xargs awk '
    FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++; total++ }
    END { if (file != "") printf "%6d %s\n", n, file; printf "%6d total\n", total }'
