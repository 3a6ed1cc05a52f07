#!/usr/bin/env bash
# Paired host-throughput gate: fails when the checked-out tree simulates
# slower, or allocates more, than a base revision on this host.
#
#   bash .github/perfgate.sh <base-rev>
#
# Run from anywhere inside the repository; it needs taskset. The base
# revision is checked out in a git worktree under the ignored .bench_build/
# and removed on exit. Both checkouts build their chexmark first: the head,
# then the base with the head's Go build cache linked in, so the base does
# not compile the standard library again. The cache is keyed by content, so
# the base's binary is the one a cold cache would build, and removing the
# worktree removes only the link. Then, ten times over, the base's and the
# head's chexmark run the spec-ptr workload traced for 20 s at the same
# time, both pinned to one CPU (the last of the script's own affinity
# list), so whatever else slows the host in that window slows both sides
# of the pair alike. Odd pairs launch the base first, even pairs the head.
# Every run uses seed 0, the committed profiles, so both sides simulate the
# same input. Both sides write run-01.json ... run-10.json, which -compare
# pairs in order. Run records and both -compare tables are left in
# .bench_build/perfgate/. When either run of a pair fails, the gate stops
# its partner and fails.
#
# Both comparisons use the base's chexmark binary, so the tables are
# always the ones already merged, never ones the head edits. The gate
# reads the comparison reversed, head as baseline and base as candidate,
# and judges its win column, the share of pairs in which the base did
# better: it fails when the base won at least 0.90 of the pairs on
# kinst_per_s.insecure, kinst_per_s.prediction or host.allocs_per_kinst.
# That is a sign test on the pairs. chexmark's own "improved" verdict needs
# the same share and also a median gap wider than the quartile distance,
# which the spread of absolute Kinst/s between runs defeats. The gate also
# fails when the comparison reports a failed check, and when any of those
# three rows is missing, duplicated, unparsable or not over 10 runs a side.
# The forward table (head judged against base) is printed for information
# only.
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
cpus=$(taskset -pc $$)
cpus=${cpus##*: } # e.g. 0-3 or 0,2,5-7
cpu=${cpus##*[,-]}

stop() { # stop and reap every run still going
	local pids
	pids=$(jobs -pr)
	if [ -n "$pids" ]; then
		kill $pids 2>/dev/null || true
	fi
	wait || true
}
cleanup() {
	stop
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 1' INT TERM

rm -rf "$out"
cleanup
mkdir -p "$out/base" "$out/head"
git worktree add --detach "$wt" "$base_rev" >/dev/null

build() { # build <checkout> <side>
	# bench/run.sh builds .bench_build/chexmark before it runs it; -h makes
	# that run print chexmark's usage and exit.
	(cd "$1" && bash bench/run.sh -h) >"$out/$2/build.txt" 2>&1 || {
		cat "$out/$2/build.txt" >&2
		return 1
	}
}

launch() { # launch <checkout> <side> <run name>, in the background
	(cd "$1" && exec taskset -c "$cpu" "$1/.bench_build/chexmark" -work "$1/.bench_build" \
		--workload spec-ptr --seed 0 --seconds 20 --trace 1 -o "$out/$2/$3.json") \
		>"$out/$2/$3.txt" 2>&1 &
}

build "$root" head
mkdir -p "$wt/.bench_build"
ln -s "$root/.bench_build/go-cache" "$wt/.bench_build/go-cache"
build "$wt" base
for i in $(seq 1 10); do
	name=$(printf 'run-%02d' "$i")
	if [ $((i % 2)) -eq 1 ]; then
		launch "$wt" base "$name"
		launch "$root" head "$name"
	else
		launch "$root" head "$name"
		launch "$wt" base "$name"
	fi
	for _ in base head; do
		if ! wait -n; then
			stop
			cat "$out/base/$name.txt" "$out/head/$name.txt" >&2
			echo "perfgate: FAIL: a run of pair $name failed" >&2
			exit 1
		fi
	done
	echo "perfgate: pair $name done on CPU $cpu"
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
	# workload metric unit median [q1, q3] median [q1, q3] change win ...
	read -r _ _ _ _ _ _ _ _ _ _ win _ <<<"$row"
	if [[ ! $win =~ ^[01]\.[0-9][0-9]$ || $row != *"(traced, n=10/10)" ]]; then
		echo "perfgate: FAIL: no win share over 10 pairs on $metric:" >&2
		echo "$row" >&2
		status=1
	elif [ "${win/./}" -ge 90 ]; then
		echo "perfgate: FAIL: the base won $win of the pairs on $metric:" >&2
		echo "$row" >&2
		status=1
	fi
done
if [ "$status" -ne 0 ]; then
	exit 1
fi
echo "perfgate: PASS"
