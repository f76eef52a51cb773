#!/bin/sh
# samebytes.sh — check that the working tree prints the same bytes as a
# base revision. It builds mcsim, mcload and mcbench twice, once from the
# base revision (default HEAD) exported into a temporary directory and
# once from the working tree, runs a fixed list of same-seed commands
# with each build and compares their stdout with cmp.
#
#	scripts/samebytes.sh            # working tree against HEAD
#	scripts/samebytes.sh 8e58c9e    # working tree against a given commit
#
# Every command line is printed with "same" or "DIFF"; the script exits
# non-zero if any output differs or any command fails on either build.
# The base revision is exported with git archive, so it needs git
# history (verify.sh does not call it for that reason) but leaves no
# worktree behind.
set -eu

cd "$(dirname "$0")/.."

base="${1:-HEAD}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src" "$tmp/base" "$tmp/work"
git archive "$base" | tar -x -C "$tmp/src"
for cmd in mcsim mcload mcbench; do
	(cd "$tmp/src" && go build -o "$tmp/base/$cmd" "./cmd/$cmd")
	go build -o "$tmp/work/$cmd" "./cmd/$cmd"
done

# One command per line, run from each build's directory. The scale
# lines cover one, two, three and five clusters because shard placement
# depends on the cluster count.
cat >"$tmp/commands" <<'EOF'
mcbench -exp all -metrics
mcsim -clients 3 -rounds 3 -db-replicas 2 -faults -metrics
mcload -scale -seed 7 -gateways 3 -cells 2 -stations 20 -duration 5s -think 300ms -metrics
mcload -scale -seed 7 -gateways 1 -cells 2 -stations 20 -duration 5s -think 300ms -metrics
mcload -scale -seed 7 -gateways 2 -cells 2 -stations 20 -duration 5s -think 300ms -metrics
mcload -scale -seed 7 -gateways 5 -cells 2 -stations 20 -duration 5s -think 300ms -metrics -shards 3
mcload -sync -seed 7 -gateways 2 -cells 2 -devices 100 -duration 30s -metrics
EOF

status=0
n=0
while IFS= read -r line; do
	n=$((n + 1))
	for side in base work; do
		# The command line is split into words on purpose.
		# shellcheck disable=SC2086
		if ! "$tmp/$side/"$line </dev/null >"$tmp/$side.$n.out" 2>/dev/null; then
			echo "FAIL ($side) $line"
			status=1
		fi
	done
	if cmp -s "$tmp/base.$n.out" "$tmp/work.$n.out"; then
		echo "same  $line"
	else
		echo "DIFF  $line"
		status=1
	fi
done <"$tmp/commands"
exit "$status"
