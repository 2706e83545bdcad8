#!/bin/sh
# bench_pair.sh BASE — the paired benchmark gate: times the revision BASE
# against the working tree (uncommitted changes included) with the
# repository benchmark and fails only on a clear regression. BASE is
# extracted with git archive into .bench_build/pair/base/, and each side
# builds and runs its own perfbench/run.sh. For each workload in
# BENCHMARK.json it runs 6 pairs at seed 20060815 with --seconds 3
# --trace 0, the base first in even pairs and the head first in odd ones,
# and prints, for each end-to-end metric, the base and head medians, the
# change and the number of pairs in which the head was worse. It fails at
# once on a run that exits non-zero or whose closing line does not start
# {"correct":true, and at the end if some metric is worse in all 6 pairs
# (a one-sided sign test at p = 1/64) and its median is worse by more than
# the metric's BENCHMARK.json bound, which keeps host drift from tripping
# it. About 6 minutes on 2 CPUs, plus a cold build of each side.
set -eu
cd "$(dirname "$0")"

if [ $# -ne 1 ]; then
	echo "usage: ./bench_pair.sh BASE" >&2
	exit 2
fi
pairs=6
dir=.bench_build/pair
rev=$(git rev-parse --verify "$1^{commit}")
mkdir -p "$dir/base"
# Replace the base checkout but keep its build cache (base/.bench_build).
find "$dir/base" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$rev" | tar -x -C "$dir/base"

# One line per workload ("w NAME") and end-to-end metric ("m NAME BETTER
# BOUND") of BENCHMARK.json.
awk '
	function val(s) { sub(/^[^:]*:[ \t]*/, "", s); gsub(/[", \t]/, "", s); return s }
	/"workloads"[ \t]*:/ { sec = "w" }
	/"end_to_end"[ \t]*:/ { sec = "m" }
	/"per_layer"[ \t]*:/ { sec = "" }
	/"name"[ \t]*:/ { name = val($0) }
	/"better"[ \t]*:/ { better = val($0) }
	/"bound"[ \t]*:/ { bound = val($0) }
	/}/ && name != "" {
		if (sec == "w") print "w", name
		if (sec == "m") print "m", name, better, bound
		name = better = bound = ""
	}
' BENCHMARK.json >"$dir/spec"

# run SIDE WORKLOAD PAIR appends the run's closing JSON line to $dir/runs.
run() {
	root=.
	[ "$1" = base ] && root=$dir/base
	if out=$(cd "$root" && bash perfbench/run.sh --workload "$2" --seed 20060815 --seconds 3 --trace 0 </dev/null 2>&1) &&
		last=$(printf '%s\n' "$out" | tail -n 1) && [ "${last#'{"correct":true,'}" != "$last" ]; then
		printf '%s %s %s %s\n' "$2" "$1" "$3" "$last" >>"$dir/runs"
	else
		printf '%s\n' "$out" | tail -n 5
		echo "FAIL $2 pair $(($3 + 1)): the $1 run exited non-zero or failed its correctness checks"
		echo "bench_pair: FAIL"
		exit 1
	fi
}

: >"$dir/runs"
for w in $(sed -n 's/^w //p' "$dir/spec"); do
	i=0
	while [ $i -lt $pairs ]; do
		echo "$w pair $((i + 1))/$pairs"
		if [ $((i % 2)) -eq 0 ]; then
			run base "$w" $i
			run head "$w" $i
		else
			run head "$w" $i
			run base "$w" $i
		fi
		i=$((i + 1))
	done
done

if awk -v pairs=$pairs '
	function median(a, n, i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
	}
	NR == FNR {
		if ($1 == "w") wl[++nw] = $2
		if ($1 == "m") { m[++nm] = $2; better[nm] = $3; bound[nm] = $4 }
		next
	}
	{
		for (k = 1; k <= nm; k++) {
			key = "\"" m[k] "\":{\"value\":"
			if (!(p = index($0, key))) { print "bench_pair: no metric " m[k] " in a " $2 " run of " $1; exit 1 }
			v[$1, $2, $3, k] = substr($0, p + length(key)) + 0
		}
	}
	END {
		printf "%-16s %-22s %14s %14s %8s %6s\n", "workload", "metric", "base", "head", "change", "worse"
		for (i = 1; i <= nw; i++) for (k = 1; k <= nm; k++) {
			worse = 0
			for (j = 1; j <= pairs; j++) {
				b[j] = v[wl[i], "base", j - 1, k]
				h[j] = v[wl[i], "head", j - 1, k]
				if (better[k] == "lower" ? h[j] > b[j] : h[j] < b[j]) worse++
			}
			bm = median(b, pairs)
			hm = median(h, pairs)
			change = bm != 0 ? hm / bm - 1 : (hm == 0 ? 0 : hm > 0 ? 1 : -1)
			loss = better[k] == "lower" ? change : -change
			flag = ""
			if (worse == pairs && loss > bound[k]) { flag = "  REGRESSION"; fail = 1 }
			printf "%-16s %-22s %14.6g %14.6g %+7.1f%% %4d/%d%s\n", wl[i], m[k], bm, hm, 100 * change, worse, pairs, flag
		}
		exit fail
	}
' "$dir/spec" "$dir/runs"; then
	echo "bench_pair: OK"
else
	echo "bench_pair: FAIL"
	exit 1
fi
