#!/usr/bin/env bash
# The benchmark's contract, as CI gates on it: every BENCHMARK.json
# workload runs correct with nothing failed, and allocs_per_pkt stays
# within 10% of the change-side median in the newest committed
# BENCH_<n>.json. It is the only metric gated here because it is the
# only one nearly stable on a shared runner (<2% IQR at 10 s);
# time-based verdicts are alternating parent/change pairs committed as
# a record. Run from anywhere: .github/bench-contract.sh
set -euo pipefail
cd "$(dirname "$0")/.."

record=$(ls BENCH_[0-9]*.json | sort -V | tail -1)
echo "ceilings: 1.10 x change-side median allocs_per_pkt in $record"

bad=0
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  ceiling=$(jq -r --arg w "$w" \
    '.summary[] | select(.workload == $w and .metric == "allocs_per_pkt") | .change.median * 1.10' "$record")
  if [ -z "$ceiling" ]; then
    echo "FAIL $w: $record has no allocs_per_pkt row for it"
    bad=1
    continue
  fi
  # The assertions read the JSON, not the exit code, so a failed run is
  # reported by what it got wrong. A miss is run again, twice at most:
  # part of allocs_per_pkt is control packets sent on a timer, so a
  # runner that is briefly slow reads high, never low, while a real
  # regression reads high every time.
  for attempt in 1 2 3; do
    last=$(go run ./bench -workload "$w" -seconds 2 -trace 0 2>/dev/null | tail -1) || true
    line=$(jq -r --arg w "$w" --argjson ceiling "$ceiling" '
      (if .correct == true and .failed == 0 and .metrics.allocs_per_pkt.value <= $ceiling then "ok" else "FAIL" end)
      + " \($w): correct=\(.correct) failed=\(.failed) allocs_per_pkt=\(.metrics.allocs_per_pkt.value) ceiling=\($ceiling)"' \
      <<<"$last") || line="FAIL $w: no contract line on stdout: $last"
    echo "$line"
    [[ $line == ok* ]] && break
  done
  [[ $line == ok* ]] || bad=1
done
exit $bad
