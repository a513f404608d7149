#!/bin/sh
# Non-test Rust lines: over crates/*/src and src, each .rs file's lines up
# to its last `#[cfg(test)]` (the whole file if it has none). The ROADMAP's
# line figures are this number. Prints it; with a TARGET argument, also
# exits 1 when the count is above TARGET.
#
#   nontest_lines.sh [TARGET]
cd "$(dirname "$0")/../.." || exit 1
lines=$(find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { total += cut ? cut : last; cut = 0 }
    /#\[cfg\(test\)\]/ { cut = FNR }
    { last = FNR }
    END { print total + (cut ? cut : last) }
' {} +)
echo "$lines"
if [ -n "$1" ] && [ "$lines" -gt "$1" ]; then
    echo "non-test Rust lines: $lines, above the target of $1" >&2
    exit 1
fi
