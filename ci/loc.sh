#!/bin/sh
# Code lines under ROADMAP's rule: non-blank, not a `//` comment line, and
# before the file's first `#[cfg(test)]`. Prints one row per `*.rs` file
# under each PATH (file or directory; missing paths count 0) and the total.
#   ci/loc.sh crates/bench/src/lib.rs crates/bench/src/bin/*.rs
for path in "$@"; do
    [ -e "$path" ] && find "$path" -name '*.rs' | sort
done | xargs -r awk '
    FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; live = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
    live && NF && $1 !~ /^\/\// { n++; total++ }
    END { if (file != "") printf "%6d %s\n", n, file; printf "%6d total\n", total }'
