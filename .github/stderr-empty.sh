# The shell of the CI steps whose commands must write nothing to stderr, named
# as `shell: bash .github/stderr-empty.sh {0}`. It runs the step's script, its
# one argument, as `shell: bash` does (bash --noprofile --norc -eo pipefail),
# with the script's stderr sent to a file. The file goes to the log when the
# script ends, and the step fails if the script failed or the file is not empty.
#
# Every Python process of the step runs in dev mode, as the tier-1 step does,
# and any warning, a DeprecationWarning too, is an error. A warning raised while
# an object is garbage-collected, such as an unclosed file's ResourceWarning,
# goes to sys.unraisablehook: it is printed and the process still exits 0. An
# empty stderr is what shows that none was raised.
export PYTHONDEVMODE=1 PYTHONWARNINGS=error
err=$(mktemp)
status=0
bash --noprofile --norc -eo pipefail "$1" 2>"$err" || status=$?
cat "$err" >&2
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if [ -s "$err" ]; then
  echo "the step wrote to stderr" >&2
  exit 1
fi
