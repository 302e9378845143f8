#!/usr/bin/env bash
# The benchmark's contract, as CI gates on it: every BENCHMARK.json
# workload runs correct with nothing failed, and allocs_per_pkt stays
# under a ceiling taken from the change-side median m in the newest
# committed BENCH_<n>.json: max(1.10 x m, m + 0.02). The absolute term
# is there because the socket path's steady state allocates nothing
# (m is 0.0004 on bulk_tcp): ten percent of that is less than one
# timer firing more or less in a 2 s run, so the ratio alone would be a
# coin toss, while 0.02 is still well under what one allocation per
# control packet costs (~0.13 on the TCP workloads), which is the
# regression this gate exists to catch. allocs_per_pkt is the only
# metric gated here because it is the only one nearly stable on a shared
# runner; time-based verdicts are alternating parent/change pairs
# committed as a record. Run from anywhere: .github/bench-contract.sh
set -euo pipefail
cd "$(dirname "$0")/.."

record=$(ls BENCH_[0-9]*.json | sort -V | tail -1)
echo "ceilings: max(1.10 x m, m + 0.02), m = change-side median allocs_per_pkt in $record"

bad=0
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  ceiling=$(jq -r --arg w "$w" \
    '.summary[] | select(.workload == $w and .metric == "allocs_per_pkt") | .change.median | [. * 1.10, . + 0.02] | max' "$record")
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
