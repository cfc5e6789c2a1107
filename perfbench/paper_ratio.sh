#!/usr/bin/env bash
# Runs app-eventual and strict-realtime with one seed and prints the ratio
# of their throughput_ops: the paper's strict-compliance slowdown on this
# host. Run from the repository root:
#
#   bash perfbench/paper_ratio.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

eventual="$(bash "$root/perfbench/run.sh" --workload app-eventual --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
strict="$(bash "$root/perfbench/run.sh" --workload strict-realtime --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"

python3 - "$eventual" "$strict" <<'EOF'
import json, sys
e, s = (json.loads(a)["metrics"]["throughput_ops"]["value"] for a in sys.argv[1:3])
print(f"throughput_ops app-eventual={e:.0f}/s strict-realtime={s:.0f}/s")
print(f"strict-realtime / app-eventual = {s / e:.3f} (app-eventual is {e / s:.1f}x faster)")
EOF
