#!/usr/bin/env bash
# Waits for a `grappolo serve` daemon to print its readiness line and prints
# the address it listens on.
#
#   addr=$(.github/scripts/await-listening.sh /tmp/serve.log)
#
# Polls LOG for `listening HOST:PORT` every 0.1 s, at most 100 times. If the
# line never appears, dumps LOG to stderr and exits 1.
set -u
log=$1
for _ in $(seq 1 100); do
  addr=$(awk '/^listening /{print $2; exit}' "$log")
  if [ -n "$addr" ]; then
    echo "$addr"
    exit 0
  fi
  sleep 0.1
done
echo "daemon never became ready ($log)" >&2
cat "$log" >&2
exit 1
