#!/usr/bin/env bash
# Checks one benchmark run against testdata/benchmark_model_pins.txt.
#
#   bash benchmark/run.sh -workload web_small -seed 7 -seconds 3 -trace 0 |
#       tail -n 1 | bash testdata/check_model_pins.sh web_small
#
# Reads the run's final JSON line from standard input and compares every
# metric pinned for the workload: exactly when the pin has no bound, within
# the relative bound otherwise. Prints one line per mismatch and exits
# non-zero if there is any, or if nothing is pinned for the workload.
set -euo pipefail
workload=$1
pins=${2:-"$(dirname "${BASH_SOURCE[0]}")/benchmark_model_pins.txt"}
line=$(tail -n 1)
awk -v w="$workload" -v line="$line" '
/^#/ || NF == 0 || $1 != w { next }
{
	metric = $2; want = $3; bound = $4; n++
	key = "\"" metric "\":{\"value\":"
	i = index(line, key)
	if (i == 0) { printf "%s: %s missing from the run\n", w, metric; bad++; next }
	rest = substr(line, i + length(key))
	got = substr(rest, 1, match(rest, /[,}]/) - 1)
	if (bound == "") {
		if (got != want) { printf "%s: %s = %s, pinned %s\n", w, metric, got, want; bad++ }
		next
	}
	d = (got - want) / want
	if (d < 0) d = -d
	if (d > bound + 0) { printf "%s: %s = %s, pinned %s within %s\n", w, metric, got, want, bound; bad++ }
}
END {
	if (n == 0) { printf "%s: no pins\n", w; exit 1 }
	if (bad > 0) exit 1
	printf "%s: %d pinned metrics hold\n", w, n
}' "$pins"
