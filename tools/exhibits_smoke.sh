#!/usr/bin/env bash
# Exhibit smoke test: every exhibit of mopac_exhibits regenerates.
#
#   1. the run of all exhibits exits 0 and equals the runs of each
#      exhibit --help lists, alone and concatenated in that order
#      (info:/warn: lines excluded): each prints a titled table, and
#      sharing cells in one sweep changes no table;
#   2. --list-points of fig13_srq_size and tab15_row_closure names no
#      (config, workload, seed) twice and lists as many points as a
#      journaled run of the exhibit stores: the whole sweep it runs.
#
# Usage: exhibits_smoke.sh <mopac_exhibits>
# Env:   MOPAC_SIM_SCALE  simulation downscale (default 0.03)

set -u
bin=${1:?usage: $0 <mopac_exhibits>}
export MOPAC_SIM_SCALE="${MOPAC_SIM_SCALE:-0.03}"
w=$(mktemp -d) || exit 1
trap 'rm -rf "$w"' EXIT INT TERM
status=0
fail() { echo "FAIL: $*" >&2; status=1; }
tables() { grep -v -e '^info:' -e '^warn:' "$1"; }

"$bin" --jobs 2 >"$w/all" || fail "the run of all exhibits failed"
: >"$w/concat"
for name in $("$bin" --help | sed -n 's/^exhibits: //p'); do
    "$bin" "$name" --jobs 2 >"$w/one" || fail "$name alone failed"
    tables "$w/one" | head -n 1 | grep -q '^== .* ==$' ||
        fail "$name printed no titled table"
    tables "$w/one" >>"$w/concat"
done
[ -s "$w/concat" ] || fail "--help lists no exhibits"
diff -u "$w/concat" <(tables "$w/all") ||
    fail "the run of all exhibits differs from each one alone"

for name in fig13_srq_size tab15_row_closure; do
    # Point rows are "id | config | workload | seed" after a title,
    # a header and a rule.
    "$bin" "$name" --list-points | tail -n +4 |
        awk -F'|' 'NF == 4 { print $2 "|" $3 "|" $4 }' >"$w/cells"
    "$bin" "$name" --jobs 2 --journal "$w/$name" >/dev/null ||
        fail "journaled run of $name failed"
    listed=$(wc -l <"$w/cells")
    stored=$(find "$w/$name" -maxdepth 1 -name '*.rec' | wc -l)
    sort "$w/cells" | uniq -d | grep . >&2 &&
        fail "$name --list-points repeats the cells above"
    [ "$listed" -gt 0 ] && [ "$listed" -eq "$stored" ] ||
        fail "$name lists $listed points; its sweep stores $stored"
done
[ "$status" -eq 0 ] && echo "OK: every exhibit regenerates"
exit $status
