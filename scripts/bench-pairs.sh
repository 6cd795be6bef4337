#!/usr/bin/env bash
# bench-pairs.sh — alternating parent/change pairs of one benchmark workload.
#
# Builds ./benchmark twice in a temporary directory — once from a parent
# commit (git archive), once from the working tree (tracked and untracked
# files that .gitignore does not exclude, edits included) — then runs the two
# binaries N times each on one workload, alternating which side runs first
# from pair to pair, with seed = pair number. Each binary runs in its own
# source tree, as a fresh checkout would. Prints every pair's end-to-end
# metrics, then per metric: each side's median, the parent's quartiles, the
# change in the median, and the number of pairs the change won (lower or
# higher is better as BENCHMARK.json says).
#
# Usage: scripts/bench-pairs.sh [-p parent] [-n pairs] [-s seconds] [-w workload] [-k]
#   -p  the parent commit (default HEAD: the working tree's edits against it)
#   -n  pairs to run (default 10)
#   -s  seconds one run measures (default: BENCHMARK.json's run_seconds)
#   -w  workload, one of BENCHMARK.json's names (default coll-2x2)
#   -k  keep the temporary directory (its path is printed)
set -euo pipefail

parent=HEAD pairs=10 seconds= workload=coll-2x2 keep=0
while getopts "p:n:s:w:k" opt; do
	case $opt in
	p) parent=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seconds=$OPTARG ;;
	w) workload=$OPTARG ;;
	k) keep=1 ;;
	*) sed -n '2,/^set -e/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2; exit 2 ;;
	esac
done

root=$(git rev-parse --show-toplevel)
cd "$root"
[ -n "$seconds" ] || seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
rev=$(git rev-parse --verify "$parent^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
if [ "$keep" = 1 ]; then
	echo "temporary directory: $tmp"
else
	trap 'rm -rf "$tmp"' EXIT
fi

mkdir -p "$tmp/parent" "$tmp/change"
git archive "$rev" | tar -x -C "$tmp/parent"
git ls-files -z -co --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -x -C "$tmp/change"
for side in parent change; do
	(cd "$tmp/$side" && go build -o bench ./benchmark)
done

echo "workload=$workload pairs=$pairs seconds=$seconds parent=${rev:0:12} change=working tree"
# run SIDE SEED: the run's last line, the result object; its report goes
# to SIDE.log.
run() {
	(cd "$tmp/$1" && ./bench -workload "$workload" -seed "$2" -seconds "$seconds" -trace 0 2>>"$tmp/$1.log" | tail -n 1)
}
: >"$tmp/results"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "$i $side $(run "$side" "$i")" >>"$tmp/results"
	done
	grep "^$i " "$tmp/results" | awk '{
		out = "pair " $1 " " $2 ":"; line = $0
		while (match(line, /"([a-z_0-9]+":\{"value":[-0-9.eE+]+|failed":[0-9]+)/)) {
			m = substr(line, RSTART + 1, RLENGTH - 1); sub(/":(\{"value":)?/, "=", m)
			out = out " " m; line = substr(line, RSTART + RLENGTH)
		}
		print out
	}'
done

# The better direction of every metric BENCHMARK.json names, then the results.
awk '
FNR == NR {
	if (match($0, /"name": *"[^"]*"/)) { n = substr($0, RSTART, RLENGTH); sub(/.*"name": *"/, "", n); sub(/"$/, "", n) }
	if (match($0, /"better": *"[^"]*"/)) { b = substr($0, RSTART, RLENGTH); sub(/.*"better": *"/, "", b); sub(/"$/, "", b); better[n] = b }
	next
}
{
	pair = $1; side = $2
	line = $0
	if (match(line, /"attempted":[0-9]+/)) attempted[side] += substr(line, RSTART + 12, RLENGTH - 12)
	if (match(line, /"failed":[0-9]+/)) failed[side] += substr(line, RSTART + 9, RLENGTH - 9)
	if (line !~ /"correct":true/) wrong[side]++
	while (match(line, /"[a-z_0-9]+":\{"value":[-0-9.eE+]+/)) {
		m = substr(line, RSTART + 1, RLENGTH - 1)
		name = m; sub(/".*/, "", name)
		v = m; sub(/.*"value":/, "", v)
		val[name, side, pair] = v + 0
		if (!(name in seen)) { seen[name] = 1; names[++nm] = name }
		line = substr(line, RSTART + RLENGTH)
	}
	if (pair > np) np = pair
}
function sorted(name, side, out,    i, j, k, t) {
	k = 0
	for (i = 1; i <= np; i++) if ((name, side, i) in val) out[++k] = val[name, side, i]
	for (i = 2; i <= k; i++) for (j = i; j > 1 && out[j-1] > out[j]; j--) { t = out[j]; out[j] = out[j-1]; out[j-1] = t }
	return k
}
function q(a, k, f,    x, i) { x = 1 + (k - 1) * f; i = int(x); return i >= k ? a[k] : a[i] + (x - i) * (a[i+1] - a[i]) }
END {
	printf "\n%-12s %12s %12s %10s %25s %8s\n", "metric", "parent", "change", "change", "parent q1-q3", "won"
	for (m = 1; m <= nm; m++) {
		name = names[m]
		kp = sorted(name, "parent", p); kc = sorted(name, "change", c)
		if (kp == 0 || kc == 0) continue
		won = 0; both = 0
		for (i = 1; i <= np; i++) {
			if (!((name, "parent", i) in val) || !((name, "change", i) in val)) continue
			both++
			d = val[name, "change", i] - val[name, "parent", i]
			if ((better[name] == "higher" && d > 0) || (better[name] != "higher" && d < 0)) won++
		}
		mp = q(p, kp, 0.5); mc = q(c, kc, 0.5)
		printf "%-12s %12.6g %12.6g %+9.1f%% %12.6g-%-12.6g %4d/%-3d\n", name, mp, mc, mp ? 100 * (mc - mp) / mp : 0, q(p, kp, 0.25), q(p, kp, 0.75), won, both
	}
	for (s = 1; s <= 2; s++) {
		side = s == 1 ? "parent" : "change"
		printf "%s: %d operations attempted, %d failed, %d runs not correct\n", side, attempted[side], failed[side], wrong[side]
	}
}' BENCHMARK.json "$tmp/results"
