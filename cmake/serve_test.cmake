# Serving acceptance test (ctest `lbectl_serve_end_to_end`): a daemon
# started over a prepared index bundle must answer `lbectl query` with a
# psms.tsv byte-identical to a one-shot `lbectl search` — before AND after
# a SIGHUP hot swap — then exit cleanly on `query --shutdown`; and a second
# daemon at a narrow window (--open-window 0.05) must match its one-shot too.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P serve_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# One shell script so the daemon can run in the background with a kill trap;
# execute_process has no notion of a long-lived child.
set(SCRIPT "
set -e
COMMON='--entries 8000 --num_queries 24 --ranks 3 --seed 2019'
SOCK='${WORK_DIR}/daemon.sock'
LOG='${WORK_DIR}/serve.log'

'${LBECTL}' prepare \$COMMON --out '${WORK_DIR}/prep'
'${LBECTL}' search \$COMMON --plan '${WORK_DIR}/prep/plan.lbe' \
    --out '${WORK_DIR}/oneshot'

'${LBECTL}' serve \$COMMON --plan '${WORK_DIR}/prep/plan.lbe' \
    --index '${WORK_DIR}/prep' --socket \"\$SOCK\" > \"\$LOG\" 2>&1 &
SERVE_PID=\$!
trap 'kill \$SERVE_PID 2>/dev/null || true' EXIT

'${LBECTL}' query \$COMMON --plan '${WORK_DIR}/prep/plan.lbe' \
    --socket \"\$SOCK\" --batch 10 --out '${WORK_DIR}/q1'
cmp '${WORK_DIR}/oneshot/psms.tsv' '${WORK_DIR}/q1/psms.tsv'

kill -HUP \$SERVE_PID
i=0
until grep -q 'hot swap complete' \"\$LOG\"; do
  i=\$((i + 1))
  test \$i -le 150 || { echo 'hot swap never completed'; exit 1; }
  sleep 0.2
done

'${LBECTL}' query \$COMMON --plan '${WORK_DIR}/prep/plan.lbe' \
    --socket \"\$SOCK\" --batch 7 --out '${WORK_DIR}/q2'
cmp '${WORK_DIR}/oneshot/psms.tsv' '${WORK_DIR}/q2/psms.tsv'

'${LBECTL}' query \$COMMON --plan '${WORK_DIR}/prep/plan.lbe' \
    --socket \"\$SOCK\" --batch 24 --out '${WORK_DIR}/q3' --shutdown
cmp '${WORK_DIR}/oneshot/psms.tsv' '${WORK_DIR}/q3/psms.tsv'
wait \$SERVE_PID

grep -q 'listening on' \"\$LOG\"
grep -q 'shutdown complete' \"\$LOG\"
test ! -e \"\$SOCK\"

# The same contract at a narrow precursor window, where the precursor-first
# window path answers most queries.
NARROW='--open-window 0.05'
'${LBECTL}' search \$COMMON \$NARROW --plan '${WORK_DIR}/prep/plan.lbe' \
    --out '${WORK_DIR}/oneshot_narrow'
'${LBECTL}' serve \$COMMON \$NARROW --plan '${WORK_DIR}/prep/plan.lbe' \
    --index '${WORK_DIR}/prep' --socket \"\$SOCK\" > \"\$LOG.narrow\" 2>&1 &
SERVE_PID=\$!
'${LBECTL}' query \$COMMON \$NARROW --plan '${WORK_DIR}/prep/plan.lbe' \
    --socket \"\$SOCK\" --batch 10 --out '${WORK_DIR}/q4' --shutdown
cmp '${WORK_DIR}/oneshot_narrow/psms.tsv' '${WORK_DIR}/q4/psms.tsv'
wait \$SERVE_PID
echo 'serve end-to-end: daemon rows byte-identical across reload + shutdown'
")

execute_process(
  COMMAND sh -c "${SCRIPT}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message(STATUS "${out}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "serve end-to-end failed (${status}):\n${out}\n${err}")
endif()
