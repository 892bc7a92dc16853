#!/bin/sh
# Runs an ipim command line that must be rejected and checks that it is
# rejected cleanly: exit status 1 and an "error: " line on stderr.  An
# exception escaping main would abort instead (status 134).
#
# usage: cli_error_exit.sh IPIM [ARGS...]
err=$("$@" 2>&1 >/dev/null)
rc=$?
printf '%s\n' "$err"
if [ "$rc" -ne 1 ]; then
    echo "expected exit status 1, got $rc" >&2
    exit 1
fi
case "$err" in
  *"error: "*) exit 0 ;;
  *) echo "expected an 'error: ' message on stderr" >&2; exit 1 ;;
esac
