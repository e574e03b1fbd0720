#!/usr/bin/env bash
# Smoke test of the installed `tunnelgraph` console script, run in the
# current directory (it writes run/, planar/ and a few track files there):
#   1. the README quick start on a 10 m drive;
#   2. the dvso track solved on SE(2) with the Huber kernel, then reported;
#   3. `optimize` exits 2 on an undecodable track and on a malformed row.
set -euo pipefail

echo "== README quick start"
printf 'trajectory.straight_length = 10\n' > quick.txt
tunnelgraph simulate --config quick.txt --out run
tunnelgraph optimize --track run/dvso_raw.txt \
                     --observations run/observations.txt --out run
tunnelgraph optimize --track run/wheel_raw.txt \
                     --observations run/observations.txt --out run
tunnelgraph report --dir run
cat run/report.txt

echo "== planar Huber solve"
tunnelgraph optimize --track run/dvso_raw.txt \
                     --observations run/observations.txt --out planar \
                     --mode planar --huber-delta 0.05
tunnelgraph report --dir planar
cat planar/report.txt

echo "== data errors exit 2"
cp run/dvso_raw.txt undecodable.txt && printf '\377\n' >> undecodable.txt
cp run/dvso_raw.txt malformed.txt && printf '9 0 0 oops 0 0 0 1\n' >> malformed.txt
for track in undecodable.txt malformed.txt; do
  code=0
  tunnelgraph optimize --track "$track" \
                       --observations run/observations.txt --out bad || code=$?
  if [ "$code" -ne 2 ]; then
    echo "$track: exit code $code, expected 2"
    exit 1
  fi
done
