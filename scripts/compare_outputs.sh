#!/bin/sh
# Compare the outputs of the README commands on commit REV's code and on the
# working tree's, byte for byte:
#
#   sh scripts/compare_outputs.sh REV
#
# REV's tree is extracted with `git archive` into a temporary directory,
# removed on exit.
# Both sides run this checkout's scripts/readme_commands.sh and
# scripts/solve_digest.py (one sha256 per solve of a 1,120-case minimize
# sweep, written to solve_digest.txt), each with its own `src` first on
# PYTHONPATH and under PYTHONWARNINGS=error::RuntimeWarning, so a new
# overflow or invalid value fails its run.  The script prints
# `diff -r base work` of the two output directories and exits with its status:
# 0 where every file matches, 1 where some differ; 2 where a side could not run.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$repo" rev-parse --quiet --verify "$1^{commit}" > /dev/null || exit 2
mkdir "$tmp/tree"
git -C "$repo" archive "$1" | tar -x -C "$tmp/tree" || exit 2
export PYTHONWARNINGS=error::RuntimeWarning

run_side() {  # run_side OUTDIR SRC
    mkdir "$1"
    # the side's own package must be the one imported, not an installed copy
    PYTHONPATH="$2" python -c 'import os, sys, qdefect
sys.exit(os.path.dirname(os.path.dirname(os.path.realpath(qdefect.__file__))) != os.path.realpath(sys.argv[1]))' "$2" \
        || { echo "$2: qdefect is imported from elsewhere" >&2; exit 2; }
    (cd "$1" && PYTHONPATH="$2" sh "$repo/scripts/readme_commands.sh" > stdout.txt) \
        || { echo "readme_commands.sh failed on $2" >&2; exit 2; }
    PYTHONPATH="$2" python "$repo/scripts/solve_digest.py" > "$1/solve_digest.txt" \
        || { echo "solve_digest.py failed on $2" >&2; exit 2; }
}
run_side "$tmp/base" "$tmp/tree/src"
run_side "$tmp/work" "$repo/src"
cd "$tmp"
status=0
diff -r base work || status=$?
exit "$status"
