#!/usr/bin/env bash
# Smoke check of the benchmark itself: the miniature fixture, every workload
# end to end plus one traced run. Verifies the oracle and the result schema,
# not speed (about 20 s after the build). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --quiet --manifest-path benchmark/Cargo.toml
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- smoke
