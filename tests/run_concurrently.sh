#!/bin/sh
# Run one gtest binary once per filter, all at the same time, and fail
# if any run fails.  Guards test isolation: two tests that share a
# scratch path (say two copies of one test, or two variants of a
# parameterised one) interfere when ctest -j runs them together.
# Each run repeats its tests 20 times, so the runs overlap throughout
# instead of only at start-up.
#
# Usage: run_concurrently.sh BINARY FILTER...

set -u
bin=$1
shift
pids=""
for filter in "$@"; do
    "$bin" --gtest_filter="$filter" --gtest_repeat=20 --gtest_brief=1 &
    pids="$pids $!"
done
status=0
for pid in $pids; do
    wait "$pid" || status=1
done
exit $status
