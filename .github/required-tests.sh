#!/bin/sh
# required-tests.sh RESULTS TEST...
#
# Fails unless every TEST reported "pass" in RESULTS, the output of
# `go test -json`. A TEST is a top-level test or a subtest path such as
# TestWireAllocBudget/batch, matched exactly: a test that failed, was
# skipped, did not run or was renamed fails the check.
set -eu
results=$1
shift
passed=$(jq -R -r 'fromjson? | select(.Action == "pass" and .Test != null) | .Test' "$results")
status=0
for test in "$@"; do
	if ! printf '%s\n' "$passed" | grep -qxF -- "$test"; then
		echo "required test did not pass: $test" >&2
		status=1
	fi
done
exit $status
