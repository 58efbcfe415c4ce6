#!/usr/bin/env bash
# Run `python -m lcbayes.cli ARGS...` from the checkout's src/ under a time
# limit and require that it ends cleanly: no traceback on stderr and an exit
# code from CODES.
#
#   .github/ends-cleanly.sh SECONDS CODES -- ARGS...
#
# CODES is a comma-separated list of allowed exit codes, e.g. 0,2.  The
# command's stdout is this script's stdout, so a caller may discard it
# (> /dev/null) or hand it to a reader that leaves early (| true); this
# script's own report goes to stderr.
set -u
seconds=$1 codes=$2
shift 2
if [ "${1:-}" = "--" ]; then
    shift
fi
exec 3>&1
code=0
err=$(PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} timeout "$seconds" python -m lcbayes.cli \
      "$@" 2>&1 >&3) || code=$?
args="$*"
echo "${args:0:80}: exit $code: ${err:0:200}" >&2
case "$err" in *Traceback*) exit 1 ;; esac
case ",$codes," in *",$code,"*) ;; *) exit 1 ;; esac
