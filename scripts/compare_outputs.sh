#!/bin/sh
# Compare the outputs of the README commands on commit REV's code and on the
# working tree's, byte for byte:
#
#   sh scripts/compare_outputs.sh REV
#
# REV's tree is checked out in a temporary `git worktree`, removed on exit.
# Both sides run this checkout's scripts/readme_commands.sh, each with its
# own `src` first on PYTHONPATH and under PYTHONWARNINGS=error::RuntimeWarning,
# so a new overflow or invalid value fails its run.  The script prints
# `diff -r base work` of the two output directories and exits with its status:
# 0 where every file matches, 1 where some differ; 2 where a side could not run.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'git -C "$repo" worktree remove --force "$tmp/tree" 2>/dev/null; rm -rf "$tmp"' EXIT
git -C "$repo" worktree add --quiet --detach "$tmp/tree" "$1" || exit 2
export PYTHONWARNINGS=error::RuntimeWarning

run_side() {  # run_side OUTDIR SRC
    mkdir "$1"
    # the side's own package must be the one imported, not an installed copy
    PYTHONPATH="$2" python -c 'import os, sys, qdefect
sys.exit(os.path.dirname(os.path.dirname(os.path.realpath(qdefect.__file__))) != os.path.realpath(sys.argv[1]))' "$2" \
        || { echo "$2: qdefect is imported from elsewhere" >&2; exit 2; }
    (cd "$1" && PYTHONPATH="$2" sh "$repo/scripts/readme_commands.sh" > stdout.txt) \
        || { echo "readme_commands.sh failed on $2" >&2; exit 2; }
}
run_side "$tmp/base" "$tmp/tree/src"
run_side "$tmp/work" "$repo/src"
cd "$tmp"
status=0
diff -r base work || status=$?
exit "$status"
