#!/bin/sh
# The lbectl equivalence matrix.
#
# Distribution only decides where a peptide is searched: the master merges
# every rank's top-k into one answer (LBE paper, section III-E), so psms.tsv
# must be byte-identical whatever the start, rank transport, schedule,
# threads per rank, decode kernel, pruning or serving mode. This script
# checks that over one table of configurations:
#
#   1. `lbectl prepare` runs twice; every file of the two bundles must be
#      byte-identical (every warm row below rests on that).
#   2. Per precursor window, one reference search over the prepared plan:
#      the first value of every axis in AXES (cold, one-shot, virtual,
#      lbe_static, --threads 1, --simd auto, --prune true).
#   3. Every row of ROWS runs, and its psms.tsv is cmp'ed against its
#      window's reference. metrics.csv columns are read by header name.
#
# Before running anything the script checks its own table: ROWS must hold
# every single-axis variant of the reference at every window, and must
# cover every pair of axis values that EXCLUDED does not rule out.
#
# Every row belongs to exactly one slice, named after the contract it
# exercises (see row_slice below); ctest runs one test per slice, so the
# slices run in parallel and a failure names its contract:
#
#   prepare   the reproducible bundle only      lbectl_prepare_reproducible
#   warm      warm (mapped bundle) starts       lbectl_warm_start_identical
#   simd      --simd scalar/sse/avx2            lbectl_simd_equivalence
#   backend   threads/process, --threads 4      lbectl_backend_equivalence
#   prune     --prune false                     lbectl_open_prune_equivalence
#   schedule  --schedule stealing               lbectl_schedule_equivalence
#   serve     daemon + SIGHUP hot swap          lbectl_serve_end_to_end
#
# Usage: sh lbectl_equivalence_matrix.sh LBECTL WORK_DIR [SLICE]
# Without SLICE every row runs.
set -eu

LBECTL=$1
WORK=$2
SLICE=${3:-all}
case $SLICE in
  all | prepare | warm | simd | backend | prune | schedule | serve) ;;
  *) echo "FAIL: unknown slice $SLICE" >&2; exit 1 ;;
esac

# One fixture for every row. The chunk policy skews the ranks (the last
# holds ~6x the first one's entries), so with two queries per batch and
# --steal_threshold 1.0 the idle ranks steal. Half the spectra carry a PTM
# shift, so the 5 Da window prunes blocks and takes the window path.
FIXTURE='--entries 12000 --num_queries 128 --ranks 4 --batch 2 --seed 2019
         --ptm_fraction 0.5 --policy chunk'

# Axis name, then its values; the first value is the reference.
AXES='window inf 0.05 5
start cold warm
mode oneshot serve
backend virtual threads process
schedule lbe_static stealing
threads 1 4
simd auto scalar sse avx2
prune true false'

# Pairs of axis values no row may hold (`*` = any value), with the reason.
# Serve rows hold `-` for backend and schedule.
EXCLUDED='mode=serve start=cold  the daemon always maps a prepared bundle
mode=serve backend=*   the daemon runs in-process engines, ignores --backend
mode=serve schedule=*  the daemon has no rank batch queues, ignores --schedule'

ROWS='
# window start mode   backend schedule  threads simd prune
# single-axis variants of the reference
inf  warm oneshot virtual lbe_static 1 auto   true
inf  warm serve   -       -          1 auto   true
inf  cold oneshot threads lbe_static 1 auto   true
inf  cold oneshot process lbe_static 1 auto   true
inf  cold oneshot virtual stealing   1 auto   true
inf  cold oneshot virtual lbe_static 4 auto   true
inf  cold oneshot virtual lbe_static 1 scalar true
inf  cold oneshot virtual lbe_static 1 sse    true
inf  cold oneshot virtual lbe_static 1 avx2   true
inf  cold oneshot virtual lbe_static 1 auto   false
0.05 warm oneshot virtual lbe_static 1 auto   true
0.05 warm serve   -       -          1 auto   true
0.05 cold oneshot threads lbe_static 1 auto   true
0.05 cold oneshot process lbe_static 1 auto   true
0.05 cold oneshot virtual stealing   1 auto   true
0.05 cold oneshot virtual lbe_static 4 auto   true
0.05 cold oneshot virtual lbe_static 1 scalar true
0.05 cold oneshot virtual lbe_static 1 sse    true
0.05 cold oneshot virtual lbe_static 1 avx2   true
0.05 cold oneshot virtual lbe_static 1 auto   false
5    warm oneshot virtual lbe_static 1 auto   true
5    warm serve   -       -          1 auto   true
5    cold oneshot threads lbe_static 1 auto   true
5    cold oneshot process lbe_static 1 auto   true
5    cold oneshot virtual stealing   1 auto   true
5    cold oneshot virtual lbe_static 4 auto   true
5    cold oneshot virtual lbe_static 1 scalar true
5    cold oneshot virtual lbe_static 1 sse    true
5    cold oneshot virtual lbe_static 1 avx2   true
5    cold oneshot virtual lbe_static 1 auto   false
# pairwise cover
5    cold oneshot process stealing   1 auto   false
5    warm serve   -       -          4 auto   false
inf  warm oneshot threads stealing   4 scalar true
inf  cold oneshot process stealing   4 avx2   true
inf  warm oneshot threads stealing   4 sse    false
5    warm serve   -       -          4 avx2   false
0.05 warm oneshot process stealing   4 scalar false
inf  warm serve   -       -          4 sse    true
5    warm serve   -       -          4 scalar true
0.05 warm oneshot threads stealing   4 avx2   true
inf  warm oneshot process stealing   4 sse    true
'

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# ---- self-check: the table's own coverage -------------------------------
AXES=$AXES EXCLUDED=$EXCLUDED ROWS=$ROWS awk '
function excluded(i, a, j, b,    e, x, y) {
  for (e = 1; e <= nex; e++) {
    split(ex[e, 1], x, "="); split(ex[e, 2], y, "=")
    if (x[1] == name[i] && (x[2] == "*" || x[2] == a) &&
        y[1] == name[j] && (y[2] == "*" || y[2] == b)) return 1
    if (x[1] == name[j] && (x[2] == "*" || x[2] == b) &&
        y[1] == name[i] && (y[2] == "*" || y[2] == a)) return 1
  }
  return 0
}
function fault(msg) { print "table: " msg; bad = 1 }
BEGIN {
  naxes = split(ENVIRON["AXES"], lines, "\n")
  for (i = 1; i <= naxes; i++) {
    nval[i] = split(lines[i], f, " ") - 1
    name[i] = f[1]
    if (name[i] == "mode") mode = i
    for (v = 1; v <= nval[i]; v++) {
      val[i, v] = f[v + 1]
      legal[i, f[v + 1]] = 1
    }
  }
  nex = split(ENVIRON["EXCLUDED"], lines, "\n")
  for (e = 1; e <= nex; e++) {
    split(lines[e], f, " ")
    ex[e, 1] = f[1]
    ex[e, 2] = f[2]
  }
  n = split(ENVIRON["ROWS"], lines, "\n")
  for (l = 1; l <= n; l++) {
    if (lines[l] ~ /^[ \t]*(#|$)/) continue
    if (split(lines[l], f, " ") != naxes) {
      fault("wrong field count: " lines[l])
      continue
    }
    key = ""
    for (i = 1; i <= naxes; i++) key = key " " f[i]
    if (key in seen) fault("duplicate row:" key)
    seen[key] = 1
    for (i = 1; i <= naxes; i++) {
      if (f[i] != "-" && !legal[i, f[i]])
        fault("unknown " name[i] " value: " lines[l])
      if (f[i] == "-" && !excluded(i, "-", mode, f[mode]))
        fault(name[i] " left empty: " lines[l])
    }
    for (i = 1; i <= naxes; i++)
      for (j = i + 1; j <= naxes; j++) {
        if (f[i] == "-" || f[j] == "-") continue
        if (excluded(i, f[i], j, f[j]))
          fault("excluded pair " name[i] "=" f[i] " " name[j] "=" f[j] \
                " in row: " lines[l])
        covered[i, f[i], j, f[j]] = 1
      }
  }
  # Every single-axis variant of the reference, at every window. A serve
  # variant is warm and leaves the axes the daemon ignores empty.
  for (w = 1; w <= nval[1]; w++)
    for (i = 2; i <= naxes; i++)
      for (v = 2; v <= nval[i]; v++) {
        for (k = 2; k <= naxes; k++) row[k] = val[k, 1]
        row[i] = val[i, v]
        if (i == mode)
          for (k = 2; k <= naxes; k++)
            if (excluded(i, val[i, v], k, row[k]))
              row[k] = (name[k] == "start") ? "warm" : "-"
        key = " " val[1, w]
        for (k = 2; k <= naxes; k++) key = key " " row[k]
        if (!(key in seen)) fault("missing single-axis variant:" key)
      }
  # Every allowed pair of axis values.
  for (i = 1; i <= naxes; i++)
    for (j = i + 1; j <= naxes; j++)
      for (a = 1; a <= nval[i]; a++)
        for (b = 1; b <= nval[j]; b++)
          if (!excluded(i, val[i, a], j, val[j, b]) &&
              !covered[i, val[i, a], j, val[j, b]])
            fault("pair not covered: " name[i] "=" val[i, a] " " \
                  name[j] "=" val[j, b])
  exit bad
}' || fail "the table does not cover the matrix"
echo "table: every single-axis variant and every allowed pair is covered"
echo "$EXCLUDED" | sed 's/^/excluded: /'

rm -rf "$WORK"
mkdir -p "$WORK"
PREP=$WORK/prep
PLAN=$PREP/plan.lbe
SERVE_PID=
trap '[ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true' EXIT

# ---- prepare: reproducible bundle ---------------------------------------
"$LBECTL" prepare $FIXTURE --out "$PREP" > "$WORK/prep.log"
if [ "$SLICE" = all ] || [ "$SLICE" = prepare ]; then
  "$LBECTL" prepare $FIXTURE --out "$WORK/prep_again" > "$WORK/prep_again.log"
  files=$(cd "$PREP" && ls)
  [ "$files" = "$(cd "$WORK/prep_again" && ls)" ] ||
    fail "the two prepare runs wrote different file sets"
  count=0
  for file in $files; do
    cmp "$PREP/$file" "$WORK/prep_again/$file" ||
      fail "prepare is not reproducible: $file differs"
    count=$((count + 1))
  done
  [ "$count" -ge 3 ] || fail "prepare wrote only $count files"
  echo "ok   prepare twice: $count byte-identical files"
fi

# ---- decode kernels this CPU lacks: the only rows allowed to skip --------
SKIP_SIMD=
for level in sse avx2; do
  if "$LBECTL" stats --entries 100 --simd "$level" 2>&1 >/dev/null |
     grep -q 'not supported by this CPU'; then
    SKIP_SIMD="$SKIP_SIMD $level"
  fi
done

# metric RUN COLUMN: COLUMN of RUN/metrics.csv, found by header name,
# summed over the ranks.
metric() {
  awk -F, -v col="$2" '
    NR == 1 { for (i = 1; i <= NF; i++) if ($i == col) k = i; next }
    { sum += $k }
    END { if (!k) exit 1; print sum + 0 }' "$WORK/$1/metrics.csv" ||
    fail "$1: metrics.csv has no column $2"
}

# require RUN COLUMN OP VALUE: the metric must satisfy `OP VALUE` (-gt/-eq).
require() {
  value=$(metric "$1" "$2")
  awk -v x="$value" -v op="$3" -v y="$4" \
      'BEGIN { exit !((op == "-gt" && x > y) || (op == "-eq" && x == y)) }' ||
    fail "$1: $2 = $value, want $3 $4"
}

# search_flags WINDOW START BACKEND SCHEDULE THREADS SIMD PRUNE
search_flags() {
  flags="--plan $PLAN --open-window $1 --threads $5 --simd $6 --prune $7"
  if [ "$2" = warm ]; then flags="$flags --index $PREP"; fi
  if [ "$3" != - ]; then flags="$flags --backend $3 --schedule $4"; fi
  if [ "$4" = stealing ]; then flags="$flags --steal_threshold 1.0"; fi
}

# oneshot RUN WINDOW START BACKEND SCHEDULE THREADS SIMD PRUNE: one
# `lbectl search` plus every metrics.csv check its configuration implies.
oneshot() {
  run=$1
  shift
  search_flags "$@"
  "$LBECTL" search $FIXTURE $flags --out "$WORK/$run" \
    > "$WORK/$run.log" 2> "$WORK/$run.err" ||
    fail "$run: lbectl search $flags exited $?"
  if [ "$2" = warm ]; then
    grep -q 'warm start: loaded .* (mmap, lazy chunks)' "$WORK/$run.log" ||
      fail "$run: no mapped warm start"
  fi
  require "$run" candidates_scored -gt 0
  if [ "$1" != inf ]; then require "$run" fragment_bins -gt 0; fi
  if [ "$7" = false ]; then require "$run" blocks_pruned -eq 0; fi
  if [ "$1" = 5 ] && [ "$7" = true ]; then
    require "$run" blocks_pruned -gt 0
  fi
  if [ "$3" = process ]; then
    require "$run" comm_messages -gt 0
    require "$run" comm_bytes -gt 0
  fi
  if [ "$4" = stealing ]; then
    require "$run" predicted_cost -gt 0
    metric "$run" pred_rel_err_mean > /dev/null
    stolen=$(metric "$run" batches_stolen)
    echo "$3 $stolen" >> "$WORK/stolen"
  else
    require "$run" batches_stolen -eq 0
  fi
}

# query_daemon RUN QUERY_FLAGS...: one `lbectl query` against RUN's daemon.
query_daemon() {
  run=$1
  shift
  "$LBECTL" query $FIXTURE --plan "$PLAN" --socket "$WORK/$run.sock" "$@" \
    > "$WORK/$run.query.log" 2>&1 || fail "$run: lbectl query $* exited $?"
}

# serve RUN WINDOW START BACKEND SCHEDULE THREADS SIMD PRUNE: a daemon over
# the prepared bundle answers three query batchings, one of them after a
# SIGHUP hot swap, then shuts down on request.
serve() {
  run=$1
  ref_psms=$WORK/ref_$2/psms.tsv
  shift
  search_flags "$@"
  mkdir -p "$WORK/$run"
  log=$WORK/$run/serve.log
  "$LBECTL" serve $FIXTURE $flags --socket "$WORK/$run.sock" > "$log" 2>&1 &
  SERVE_PID=$!
  query_daemon "$run" --batch 10 --out "$WORK/$run/q10"
  kill -HUP "$SERVE_PID"
  i=0
  until grep -q 'hot swap complete' "$log"; do
    i=$((i + 1))
    [ "$i" -le 150 ] || fail "$run: hot swap never completed"
    sleep 0.2
  done
  query_daemon "$run" --batch 7 --out "$WORK/$run/q7"
  query_daemon "$run" --batch 24 --out "$WORK/$run/q24" --shutdown
  wait "$SERVE_PID" || fail "$run: the daemon exited $?"
  SERVE_PID=
  grep -q 'resident (mmap, lazy chunks)' "$log" || fail "$run: no mapped bundle"
  grep -q 'listening on' "$log" || fail "$run: never listened"
  grep -q 'shutdown complete' "$log" || fail "$run: no clean shutdown"
  [ ! -e "$WORK/$run.sock" ] || fail "$run: the socket file was left behind"
  for batch in 10 7 24; do
    cmp "$ref_psms" "$WORK/$run/q$batch/psms.tsv" ||
      fail "$run: query --batch $batch psms.tsv differs from the reference"
  done
}

# row_slice WINDOW START MODE BACKEND SCHEDULE THREADS SIMD PRUNE: sets
# `slice` to the one slice the row belongs to, the first that matches.
row_slice() {
  if [ "$3" = serve ]; then slice=serve
  elif [ "$5" = stealing ]; then slice=schedule
  elif [ "$4" != virtual ] || [ "$6" != 1 ]; then slice=backend
  elif [ "$8" = false ]; then slice=prune
  elif [ "$7" != auto ]; then slice=simd
  elif [ "$2" = warm ]; then slice=warm
  else fail "row belongs to no slice: $*"
  fi
}

# reference WINDOW: the window's reference search, run once on first use.
reference() {
  [ -e "$WORK/ref_$1/psms.tsv" ] ||
    oneshot "ref_$1" "$1" cold virtual lbe_static 1 auto true
}

# ---- every row of the slice, each against its window's reference ---------
: > "$WORK/stolen"
row=0
rows=0
skipped=0
while read -r window start mode backend schedule threads simd prune <&3; do
  case $window in '' | '#'*) continue ;; esac
  row=$((row + 1))
  config="$window $start $mode $backend $schedule $threads $simd $prune"
  row_slice $config
  [ "$SLICE" = all ] || [ "$SLICE" = "$slice" ] || continue
  rows=$((rows + 1))
  case " $SKIP_SIMD " in
    *" $simd "*)
      echo "skip $config: this CPU lacks --simd $simd"
      skipped=$((skipped + 1))
      continue ;;
  esac
  reference "$window"
  run=row$row
  if [ "$mode" = serve ]; then
    serve "$run" "$window" "$start" "$backend" "$schedule" "$threads" \
      "$simd" "$prune"
  else
    oneshot "$run" "$window" "$start" "$backend" "$schedule" "$threads" \
      "$simd" "$prune"
    cmp "$WORK/ref_$window/psms.tsv" "$WORK/$run/psms.tsv" ||
      fail "$run ($config): psms.tsv differs from the reference"
  fi
  echo "ok   $config"
done 3<<EOF
$ROWS
EOF

[ "$SLICE" = prepare ] || [ "$rows" -gt 0 ] || fail "slice $SLICE has no rows"

# Each backend's stealing rows must steal, or their cmp proves nothing
# about stealing.
if [ "$SLICE" = all ] || [ "$SLICE" = schedule ]; then
  stolen=$(awk '{ s[$1] += $2 } END { for (b in s) printf "%s %d  ", b, s[b] }' \
    "$WORK/stolen")
  for backend in virtual threads process; do
    awk -v b="$backend" '$1 == b { n += $2 } END { exit !(n > 0) }' \
      "$WORK/stolen" ||
      fail "the stealing rows on $backend stole nothing: $stolen"
  done
  echo "ok   stealing rows stole: $stolen"
fi
echo "equivalence matrix, slice $SLICE: $rows rows, $((rows - skipped)) ran, $skipped skipped"
