#!/bin/sh
# Repo health check: build, the test suite on the serial and the pooled
# engine, formatting (when ocamlformat is available), and the bench smoke
# gates, every one of them even after a failure; the exit status is 1
# when any step failed. CI runs all of it here and nowhere else, so a
# local run checks exactly what CI checks.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

# The suite on the serial and on a four-domain engine. test/dune
# declares DL_DOMAINS a dependency, so each leg reruns whenever its
# value differs from the cached run's.
echo "== DL_DOMAINS=1 dune runtest"
DL_DOMAINS=1 dune runtest

echo "== DL_DOMAINS=4 dune runtest"
DL_DOMAINS=4 dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== dune build @fmt (skipped: ocamlformat not installed)"
fi

# Every smoke gate runs, whatever the ones before it printed; the
# failed ones are named at the end.
failed=""
gate() {
  name=$1
  echo "== bench smoke ($name: $2)"
  shift 2
  if ! "$@"; then
    echo "!! bench smoke $name failed"
    failed="$failed $name"
  fi
}

gate persist "on-disk log within 33/32 of a fresh checkpoint" \
  sh -c './_build/default/bench/main.exe persist >/dev/null'
# micro runs the typed-column gate too, so it is not run again on its own.
gate micro "access-path, domain-pool, delta SPJ, vectorized, typed-column (>=1.5x time / >=5x minor-words over boxed mirrors) and lineage-allocation (<=1.4x the plain run) gates" \
  ./_build/default/bench/main.exe micro --smoke
gate load "batched-admission throughput gate" \
  ./_build/default/bench/main.exe load --smoke
gate scale ">=10x over naive at 1k policies" \
  ./_build/default/bench/main.exe scale --smoke

if [ -n "$failed" ]; then
  echo "failed smoke gates:$failed"
  exit 1
fi
echo "ok"
