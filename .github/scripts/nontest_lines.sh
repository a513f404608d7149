#!/bin/sh
# Non-test Rust lines: over crates/*/src and src, each .rs file's lines up
# to its last `#[cfg(test)]` (the whole file if it has none). The ROADMAP's
# line figures are this number.
cd "$(dirname "$0")/../.." || exit 1
find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { total += cut ? cut : last; cut = 0 }
    /#\[cfg\(test\)\]/ { cut = FNR }
    { last = FNR }
    END { print total + (cut ? cut : last) }
' {} +
