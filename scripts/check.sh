#!/bin/sh
# Repo health check: build, the test suite on the serial and the pooled
# engine, formatting (when ocamlformat is available), and a
# persistence-bench smoke run.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

# The pooled leg CI runs too: the same suite on a four-domain engine.
echo "== DL_DOMAINS=4 dune runtest --force"
DL_DOMAINS=4 dune runtest --force

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== dune build @fmt (skipped: ocamlformat not installed)"
fi

echo "== bench smoke (persist)"
./_build/default/bench/main.exe persist >/dev/null

echo "ok"
