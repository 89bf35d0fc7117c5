#!/usr/bin/env bash
# Run every benchmark workload once, from the repository root.
#   bash perfbench/all.sh            end-to-end metrics (untraced)
#   bash perfbench/all.sh 1          per-layer metrics (traced run)
# SEED and SECONDS_PER_RUN may be set in the environment (defaults 0 and 30).
set -euo pipefail
trace="${1:-0}"
for w in tg-sweep tg-reuse wide-idx; do
    python3 perfbench/run.py --workload "$w" --seed "${SEED:-0}" \
        --seconds "${SECONDS_PER_RUN:-30}" --trace "$trace"
done
