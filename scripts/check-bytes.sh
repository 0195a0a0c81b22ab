#!/usr/bin/env bash
# Checks that the current checkout produces the same output bytes as git
# revision REV, apart from wall-clock fields.
#
# Usage: scripts/check-bytes.sh REV
#
# REV is exported with `git archive` and built under target/check-bytes/
# (its target directory there is kept between runs);
# the checkout is built in place (uncommitted edits included). Both builds
# then run:
#   - `TETRIUM_QUICK=1 TETRIUM_OBS=1 figs` at TETRIUM_THREADS=1 and 4;
#   - `TETRIUM_QUICK=1 figs scale --sites 1000`;
#   - `tetrium-cli run --trace mini_trace.json` with --obs, --obs-otel and
#     --chrome-trace.
# Every JSON file loses its `decision_ms`, `wall_secs` and `wall_ms` fields
# (measured wall-clock) by a text edit: a pretty-printed file loses the
# whole line, a compact one the key-value pair. Nothing else is re-printed,
# so the two output trees, target/check-bytes/out/base and .../head, are
# diffed byte for byte, number formatting included. Exits 0 when they are identical and then
# deletes target/check-bytes/out (it holds several hundred MB of obs
# records); otherwise it prints the list of differing files and the first
# 20 lines of each one's diff, keeps the trees for inspection and exits 1.
# Console output is kept next to the records but not compared: it prints
# the same wall-clock fields.
# Needs git, cargo and sed; the quick figures take a few minutes per run.
set -euo pipefail

rev=${1:?usage: scripts/check-bytes.sh REV}
lines=20
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
work=$root/target/check-bytes
base=$work/src
rm -rf "$base" "$work/out"
mkdir -p "$base"
git archive "$sha" | tar -x -C "$base"

# Builds the workspace in $1 into the target directory $2.
build() {
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline -q -p tetrium-bench -p tetrium-cli)
}

# Runs every output-producing command of the binaries in $2 into
# $work/out/$1/.
run() {
    local out=$work/out/$1 bin=$2
    local trace=$root/crates/workload/tests/fixtures/mini_trace.json
    for t in 1 4; do
        mkdir -p "$out/figs-t$t"
        (cd "$out/figs-t$t" &&
            TETRIUM_QUICK=1 TETRIUM_OBS=1 TETRIUM_THREADS=$t "$bin/figs" >stdout.txt 2>stderr.txt)
    done
    mkdir -p "$out/scale"
    (cd "$out/scale" &&
        TETRIUM_QUICK=1 "$bin/figs" scale --sites 1000 >stdout.txt 2>stderr.txt)
    mkdir -p "$out/cli"
    "$bin/tetrium-cli" run --trace "$trace" --sites ec2-8 --seed 5 \
        --obs "$out/cli/run.obs.json" --obs-otel "$out/cli/run.otel.json" \
        --chrome-trace "$out/cli/run.chrome.json" >"$out/cli/stdout.txt"
    local keys='"(decision_ms|wall_secs|wall_ms)"'
    find "$out" -name '*.json' -print0 | xargs -0 -r sed -E -i \
        -e "/^[[:space:]]*$keys: /d" \
        -e "s/,$keys:[^,}]*//g" \
        -e "s/$keys:[^,}]*,?//g"
}

echo "building $sha and the checkout" >&2
build "$base" "$work/target"
build "$root" "$root/target"
echo "running $sha" >&2
run base "$work/target/release"
echo "running the checkout" >&2
run head "$root/target/release"
if differ=$(diff -rq -x '*.txt' "$work/out/base" "$work/out/head"); then
    echo "identical: $(find "$work/out/head" -name '*.json' | wc -l) JSON files" >&2
    rm -rf "$work/out"
else
    # One line per differing or missing file, then the head of each
    # differing file's diff: one last-bit change in an obs record can
    # otherwise print millions of lines.
    echo "$differ"
    echo "$differ" | sed -n 's/^Files \(.*\) and \(.*\) differ$/\1\t\2/p' |
        while IFS=$'\t' read -r a b; do
            echo "--- first $lines lines of diff $a $b"
            { diff "$a" "$b" || true; } | head -n "$lines"
        done
    echo "outputs differ from $sha; kept in $work/out" >&2
    exit 1
fi
