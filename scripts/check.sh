#!/bin/sh
# Repo health check: build, the test suite on the serial and the pooled
# engine (CI runs both legs here and nowhere else), formatting (when
# ocamlformat is available), and a persistence-bench smoke run.
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

echo "== bench smoke (persist)"
./_build/default/bench/main.exe persist >/dev/null

echo "ok"
