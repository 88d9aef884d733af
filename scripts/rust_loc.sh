#!/usr/bin/env bash
# Counts non-test Rust lines: every tracked `.rs` file under `crates/*/src`
# and `src/`, up to its first `#[cfg(test)]` line. Run from anywhere in the
# repo; prints one number.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files 'crates/*.rs' 'src/*.rs' | grep /src/ |
  xargs awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip{n++} END{print n}'
