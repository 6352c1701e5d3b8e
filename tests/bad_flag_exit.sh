#!/bin/sh
# A malformed numeric or bool flag value, or one the program cannot
# use (a zero heartbeat period), must end a command-line entry point
# with exit status 1 and an error naming the flag on stderr, never an
# uncaught exception (SIGABRT, exit 134).
#
# Usage: bad_flag_exit.sh BENCH IPREF_TOP IPREF_CAMPAIGN IPREF_ANALYZE

fail=0

check() {
    flag=$1
    shift
    err=$("$@" 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 1 ]; then
        echo "FAIL: '$*' exited $status, want 1" >&2
        fail=1
    elif ! printf '%s\n' "$err" | grep -q -- "--$flag"; then
        echo "FAIL: '$*' stderr does not name --$flag: $err" >&2
        fail=1
    else
        echo "ok: $* -> $err"
    fi
}

check jobs "$1" --jobs abc
check refresh-ms "$2" --once --refresh-ms abc
check workers "$3" --workers abc
check resume "$3" --resume=maybe
check heartbeat-ms "$3" --heartbeat-ms 0
check top "$4" --top abc

exit $fail
