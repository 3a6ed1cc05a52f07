#!/usr/bin/env bash
# Paired host-throughput gate: fails when the checked-out tree simulates
# slower, or allocates more, than a base revision on this host.
#
#   bash .github/perfgate.sh <base-rev>
#
# Run from anywhere inside the repository. The base revision is checked
# out in a git worktree under the ignored .bench_build/ and removed on
# exit. Ten times over, the chexmark spec-ptr workload runs traced for
# 20 s on the base and on the head alternately, odd runs base first, so a
# drift in host speed lands on both sides. Every run uses seed 0, the
# committed profiles: a regression gate needs the same input on both
# sides, and then the quartile distance of a side's runs measures host
# noise rather than ten different programs. Both sides write
# run-01.json ... run-10.json, which -compare pairs in order. Run records
# and both -compare tables are left in .bench_build/perfgate/.
#
# Both comparisons use the base's chexmark binary, so the decision rule is
# always the one already merged, never one the head edits. The gate reads
# the comparison reversed, head as baseline and base as candidate, so an
# "improved" verdict means the base beat the head by chexmark's own rule
# for a gain: better in at least 9 of 10 run pairs, by a median gap
# larger than the quartile distance of the head's runs. It fails when
# that table reads "improved" on kinst_per_s.insecure,
# kinst_per_s.prediction or host.allocs_per_kinst, when the comparison
# reports a failed check, and when any of those three rows is missing or
# carries a verdict it does not know. The forward table (head judged
# against base) is printed for information only.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-rev>" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
out="$root/.bench_build/perfgate"
wt="$root/.bench_build/perfgate-base"

cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT

rm -rf "$out"
cleanup
mkdir -p "$out/base" "$out/head"
git worktree add --detach "$wt" "$base_rev" >/dev/null

run() { # run <checkout> <side> <run number>
	local name
	name=$(printf 'run-%02d' "$3")
	(cd "$1" && bash bench/run.sh --workload spec-ptr --seed 0 --seconds 20 --trace 1 \
		-o "$out/$2/$name.json") >"$out/$2/$name.txt" 2>&1 || {
		cat "$out/$2/$name.txt" >&2
		return 1
	}
	echo "perfgate: $2 $name done"
}

for i in $(seq 1 10); do
	if [ $((i % 2)) -eq 1 ]; then
		run "$wt" base "$i"
		run "$root" head "$i"
	else
		run "$root" head "$i"
		run "$wt" base "$i"
	fi
done

chexmark="$wt/.bench_build/chexmark"
"$chexmark" -compare "$out/base" "$out/head" >"$out/compare-base-head.txt" 2>&1 || true
status=0
"$chexmark" -compare "$out/head" "$out/base" >"$out/compare-head-base.txt" 2>&1 || status=1
echo "== head judged against base (information) =="
cat "$out/compare-base-head.txt"
echo "== base judged against head (the gate) =="
cat "$out/compare-head-base.txt"

if [ "$status" -ne 0 ]; then
	echo "perfgate: FAIL: the comparison reported a failed check" >&2
	exit 1
fi
for metric in kinst_per_s.insecure kinst_per_s.prediction host.allocs_per_kinst; do
	pattern="^spec-ptr +${metric//./\\.} "
	if [ "$(grep -cE "$pattern" "$out/compare-head-base.txt" || true)" -ne 1 ]; then
		echo "perfgate: FAIL: the comparison has no single spec-ptr $metric row" >&2
		status=1
		continue
	fi
	row=$(grep -E "$pattern" "$out/compare-head-base.txt")
	case "$row" in
	*" no bound ("*) ;;
	*" improved ("*)
		echo "perfgate: FAIL: the base beat the head on $metric:" >&2
		echo "$row" >&2
		status=1
		;;
	*)
		echo "perfgate: FAIL: unknown verdict on $metric:" >&2
		echo "$row" >&2
		status=1
		;;
	esac
done
if [ "$status" -ne 0 ]; then
	exit 1
fi
echo "perfgate: PASS"
