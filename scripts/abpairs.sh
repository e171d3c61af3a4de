#!/usr/bin/env bash
# abpairs.sh — alternated before/after pairs of the repository benchmark.
#
# Usage: scripts/abpairs.sh PARENT [-workload W] [-pairs N] [-seeds a,b,…]
#
# PARENT is any commit-ish (a hash, HEAD~1, a branch). The script exports
# PARENT and the working tree (tracked and untracked, not ignored, files)
# into two directories under the system temp dir, builds the benchmark in
# each, and then runs `benchmark/run.sh -trace 0` alternately: pair i runs
# both trees on the i-th seed, the parent first in odd pairs and the change
# first in even ones, so a drift of the host's speed during the session
# falls on both sides alike. Nothing is fetched and the repository's own
# checkout is neither written nor registered with git.
#
# Defaults: every workload of BENCHMARK.json, 10 pairs and seeds 1..N; each
# run lasts the benchmark's own measuring time. A seed list shorter than the
# pairs is reused from its start.
#
# For every end-to-end metric of each workload it prints the parent's and
# the change's medians, the change in the median, the parent's quartile
# spread (q3 − q1, linear interpolation), and the pairs in which the change
# was better and worse. The verdict follows one fixed rule:
#
#   better / worse  N ≥ 10 AND at least ⌈0.9·N⌉ of the N pairs go that way
#                   (a tie counts for neither side) AND
#                   |median(change) − median(parent)| > the parent's spread;
#   same            every pair reads the same value on both sides;
#   unresolved      anything else, and always when N < 10: fewer pairs
#                   cannot support a claim either way.
#
# "Better" is the direction BENCHMARK.json gives the metric; a "worse" whose
# median moved by no more than the metric's bound there is marked "(in
# bound)". Exits non-zero if any run fails or reports correct: false.
set -euo pipefail

usage() {
	echo "usage: $0 PARENT [-workload W] [-pairs N] [-seeds a,b,...]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
workloads=""
pairs=10
seeds=""
while [ $# -gt 0 ]; do
	case $1 in
	-workload) workloads=${2:?}; shift 2 ;;
	-pairs) pairs=${2:?}; shift 2 ;;
	-seeds) seeds=${2:?}; shift 2 ;;
	*) usage ;;
	esac
done
[ "$pairs" -ge 1 ] 2>/dev/null || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify -q "$parent^{commit}" >/dev/null || { echo "abpairs: unknown commit $parent" >&2; exit 2; }

# Metric directions and bounds, from the end_to_end table of BENCHMARK.json.
directions=$(awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); better = $2 }
	on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
' BENCHMARK.json)
[ -n "$workloads" ] || workloads=$(awk '
	/"workloads"/ { on = 1 }
	/"end_to_end"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); print $2 }
' BENCHMARK.json)
if [ -z "$seeds" ]; then
	seeds=$(seq -s, 1 "$pairs")
fi
IFS=, read -r -a seedlist <<<"$seeds"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/abpairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/change"
git archive "$parent" | tar -x -C "$tmp/parent"
# One archive from one file list; tracked files deleted from the working
# tree are left out.
git ls-files -z -c -o --exclude-standard |
	while IFS= read -r -d '' f; do
		if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
	done |
	tar -c --null --no-recursion -T - -f - | tar -x -C "$tmp/change"

for side in parent change; do
	echo "abpairs: building $side" >&2
	bash "$tmp/$side/benchmark/run.sh" -manifest >/dev/null
done

# run SIDE WORKLOAD SEED appends "metric value" lines for one run to
# $tmp/WORKLOAD.SIDE.PAIR.
run() {
	local out
	out=$(bash "$tmp/$1/benchmark/run.sh" -workload "$2" -seed "$3" -trace 0 | tail -n 1) || {
		echo "abpairs: $1 run of $2 (seed $3) failed" >&2
		exit 1
	}
	case $out in
	*'"correct":true'*) ;;
	*) echo "abpairs: $1 run of $2 (seed $3) is not correct: $out" >&2; exit 1 ;;
	esac
	echo "$out" | grep -o '"[a-z_0-9]*":{"value":[-0-9.e+]*' |
		sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' >"$tmp/$2.$1.$4"
}

# quartiles prints the median and q3 − q1 of the numbers on stdin.
quartiles() {
	sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1 < NR ? lo + 1 : NR] - v[lo]) }
		END { printf "%.17g %.17g\n", q(0.5), q(0.75) - q(0.25) }'
}

for w in $workloads; do
	used=()
	for ((i = 1; i <= pairs; i++)); do
		seed=${seedlist[$(((i - 1) % ${#seedlist[@]}))]}
		used+=("$seed")
		echo "abpairs: $w pair $i/$pairs, seed $seed" >&2
		if ((i % 2)); then
			run parent "$w" "$seed" "$i"
			run change "$w" "$seed" "$i"
		else
			run change "$w" "$seed" "$i"
			run parent "$w" "$seed" "$i"
		fi
	done

	echo "== $w: $pairs pairs, seeds $(
		IFS=,
		echo "${used[*]}"
	), parent $(git rev-parse --short "$parent")"
	printf '%-20s %14s %14s %9s %12s %7s %7s  %s\n' metric parent_median change_median delta parent_iqr better worse verdict
	while read -r metric better bound; do
		grep -q "^$metric " "$tmp/$w.parent.1" || continue
		for side in parent change; do
			for ((i = 1; i <= pairs; i++)); do
				awk -v m="$metric" '$1 == m { print $2 }' "$tmp/$w.$side.$i"
			done >"$tmp/$w.$side.$metric"
		done
		read -r pmed piqr < <(quartiles <"$tmp/$w.parent.$metric")
		read -r cmed _ < <(quartiles <"$tmp/$w.change.$metric")
		paste -d' ' "$tmp/$w.parent.$metric" "$tmp/$w.change.$metric" |
			awk -v better="$better" -v bound="$bound" -v pmed="$pmed" -v cmed="$cmed" -v piqr="$piqr" -v n="$pairs" -v metric="$metric" '
				{
					d = $2 - $1
					if (better == "higher") d = -d
					if (d < 0) win++
					else if (d > 0) loss++
				}
				END {
					need = int((9 * n + 9) / 10)
					delta = cmed - pmed
					adelta = delta < 0 ? -delta : delta
					if (win + loss == 0) verdict = "same"
					else if (n < 10) verdict = "unresolved"
					else if (win >= need && adelta > piqr) verdict = "better"
					else if (loss >= need && adelta > piqr) verdict = (pmed != 0 && adelta <= bound * (pmed < 0 ? -pmed : pmed)) ? "worse (in bound)" : "worse"
					else verdict = "unresolved"
					rel = pmed != 0 ? sprintf("%+.1f%%", 100 * delta / pmed) : "n/a"
					printf "%-20s %14.6g %14.6g %9s %12.4g %4d/%-2d %4d/%-2d  %s\n", metric, pmed, cmed, rel, piqr, win, n, loss, n, verdict
				}'
	done <<<"$directions"
	echo
done
