#!/bin/sh
# bench_digests.sh — the benchmark digest gate (same as `make digests`):
# runs the repository benchmark for one second on each workload and seed
# listed in bench_digests.txt, with --trace 0, and fails if a run errors,
# reports a failed correctness check ("correct":false), or prints a digest
# other than the committed one. The digest hashes every simulated result,
# so the gate proves a change left the four benchmark workloads
# bit-identical at both seeds. All eight runs take about 35 s on 2 CPUs.
# It is kept out of check.sh, which stays a quick pre-commit gate.
set -eu
cd "$(dirname "$0")"

fail=0
while read -r workload seed want; do
	case $workload in '' | '#'*) continue ;; esac
	if ! out=$(bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0 </dev/null 2>&1); then
		printf '%s\n' "$out"
		echo "FAIL $workload seed $seed: perfbench exited non-zero"
		fail=1
		continue
	fi
	got=$(printf '%s\n' "$out" | sed -n 's/^digest sha256=//p')
	if ! printf '%s\n' "$out" | grep -q '^{"correct":true,'; then
		printf '%s\n' "$out" | tail -n 3
		echo "FAIL $workload seed $seed: correctness checks failed"
		fail=1
	elif [ "$got" != "$want" ]; then
		echo "FAIL $workload seed $seed: digest $got, want $want"
		fail=1
	else
		echo "ok   $workload seed $seed"
	fi
done <bench_digests.txt

if [ "$fail" -ne 0 ]; then
	echo "bench_digests: FAIL"
	exit 1
fi
echo "bench_digests: OK"
