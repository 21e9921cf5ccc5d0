#!/bin/bash
# Regenerates every table and figure at default scale.
#
# Artifacts are written atomically (tmp + sync + rename), so a run
# killed mid-binary never leaves a half-written .tsv behind. Each table
# starts with a `# version=… generator=…` line; the binary's own
# `# seed=… scale=…` line follows it.
cd "$(dirname "$0")/.." || exit 1
VERSION=$(grep -m1 '^version' Cargo.toml | cut -d'"' -f2)
for bin in tab01 tab02 tab03 fig01 fig02 fig03 fig04 fig05 fig06 tab04 fig07 fig08 fig09 fig10 fig11 fig12 ext01_interarrival ext02_anova ext03_aggregation ext04_histogram ext05_hysteresis ext06_omission ext07_freqtrace ext08_interactions ext09_faults; do
  echo "=== $bin ($(date +%H:%M:%S)) ===" >> results/progress.log
  tmp="results/$bin.tsv.tmp"
  echo "# version=$VERSION generator=$bin" > "$tmp"
  if ./target/release/$bin >> "$tmp" 2> results/$bin.err; then
    sync "$tmp"
    mv "$tmp" "results/$bin.tsv"
  else
    echo "FAILED $bin (exit $?); partial output left in $tmp" >> results/progress.log
  fi
done
echo "ALL DONE $(date +%H:%M:%S)" >> results/progress.log
