#!/usr/bin/env bash
# Runs clippy on the canary package and fails unless it reports every
# path that the root clippy.toml bans (entries marked allow-invalid
# name crates that are not dependencies, so they cannot resolve).
# Run from the repository root.
set -euo pipefail
out=$(cargo clippy --quiet --manifest-path crates/lint/canary/Cargo.toml \
    --target-dir target/canary --color never 2>&1 || true)
bans=$(grep -v 'allow-invalid = true' clippy.toml | sed -n 's/.*path = "\([^"]*\)".*/\1/p')
missing=0
for path in $bans; do
    if ! grep -qE "use of a disallowed (method|type) \`$path\`" <<<"$out"; then
        echo "clippy did not report the banned path $path" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] && echo "canary: clippy reported all $(wc -w <<<"$bans") banned paths"
exit "$missing"
