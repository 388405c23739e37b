#!/bin/sh
# Byte-identity and store-compatibility check between two psv builds.
#
#   sh scripts/ident.sh OLD_PSV NEW_PSV DIR
#
# Runs both binaries over the same inputs in DIR (wiped first) and
# compares: verify/query/check text and --json output, stderr cache: and
# incr: lines (wall times stripped), watch output, serve answer and
# error responses, store-entry payloads, .psvs session files, checkpoint
# bytes and resume in both directions, and sweep points and summary.
# Stores written by one build are read by the other.  Prints one
# MISMATCH line per difference and "ALL IDENTICAL" when there is none;
# exits 0 then and 1 otherwise.  GRID=0 skips the 1280-point sweep.
set -u
abs() { case $1 in /*) echo "$1" ;; *) echo "$(pwd)/$1" ;; esac; }
OLD=$(abs "$1"); NEW=$(abs "$2"); D=$3
rm -rf "$D"; mkdir -p "$D"; cd "$D" || exit 3
fail=0
bad() { echo "MISMATCH: $*"; fail=1; }
# wall times in incr: lines and watch rows
nums() { sed -e 's/, [0-9.]* ms)/, ms)/' -e 's/, [0-9.]* ms,/, ms,/' "$1"; }
$NEW export --psm -o psm.xta

# --- verify: plain, cold and warm store, text and JSON ---------------------
Q="psm.xta --trigger m_BolusReq --response c_StartInfusion"
i=0
for extra in "" "--bound 1430" "--bound 1000" "--bound 1430 --budget-states 2000"; do
  i=$((i+1))
  for fmt in "" "--json"; do
    for side in old new; do
      eval "P=\$$(echo $side | tr a-z A-Z)"
      $P verify $fmt $extra $Q > $side.$i$fmt.plain 2>/dev/null; echo "rc=$?" >> $side.$i$fmt.plain
      $P verify --cache store.$side.$i$fmt $fmt $extra $Q > $side.$i$fmt.cold 2> $side.$i$fmt.cold.err; echo "rc=$?" >> $side.$i$fmt.cold
      $P verify --cache store.$side.$i$fmt $fmt $extra $Q > $side.$i$fmt.warm 2> $side.$i$fmt.warm.err; echo "rc=$?" >> $side.$i$fmt.warm
    done
    for m in plain cold warm cold.err warm.err; do
      cmp -s old.$i$fmt.$m new.$i$fmt.$m || bad "verify case $i $fmt $m"
    done
    cmp -s new.$i$fmt.plain new.$i$fmt.warm || bad "verify case $i $fmt: warm != plain"
  done
done

# --- check -----------------------------------------------------------------
printf '%s\n' 'E<> Pump_IO.Infusing' 'A[] iovf_BolusReq == 0' 'A[] oovf_StartInfusion == 0' \
  'sup: m_BolusReq -> c_StartInfusion ceiling 3000' 'bounded: m_BolusReq -> c_StartInfusion within 1430' > queries.q
$OLD check --json psm.xta queries.q > check.old 2>&1
$NEW check --json psm.xta queries.q > check.new 2>&1
cmp -s check.old check.new || bad "check --json"

# --- checkpoints: bytes, and resume in both directions ---------------------
B="--trigger m_BolusReq --response c_StartInfusion --bound 1430"
$OLD verify psm.xta $B > full.old
$OLD verify --budget-states 5000 --checkpoint old.snap psm.xta $B > /dev/null
$NEW verify --budget-states 5000 --checkpoint new.snap psm.xta $B > /dev/null
$NEW verify --resume old.snap psm.xta $B > res.new-of-old
$OLD verify --resume new.snap psm.xta $B > res.old-of-new
cmp -s full.old res.new-of-old || bad "parent snapshot under change"
cmp -s full.old res.old-of-new || bad "change snapshot under parent"
cmp -s old.snap new.snap || bad "checkpoint snapshot bytes"

# --- a store written by the parent answers the change ----------------------
for extra in "" "--bound 1430" "--bound 1000"; do
  $OLD verify --cache xstore --json $extra $Q > x.old 2>/dev/null
  $NEW verify --cache xstore --json $extra $Q > x.new 2> x.err
  grep -q 'cache: 1 hits, 0 misses' x.err || bad "parent store miss: verify $extra"
  cmp -s x.old x.new || bad "parent store answer: verify $extra"
done

# --- check --cache across builds, and entry payloads -----------------------
for j in 1 2; do
  $OLD check --json --jobs $j --cache cA.$j psm.xta queries.q > cA.$j.old 2> cA.$j.old.err
  $NEW check --json --jobs $j --cache cA.$j psm.xta queries.q > cA.$j.new 2> cA.$j.new.err
  grep -q 'cache: 5 hits, 0 misses' cA.$j.new.err || bad "check: parent store misses (jobs $j)"
  cmp -s cA.$j.old cA.$j.new || bad "check: parent store answer (jobs $j)"
  $NEW check --json --jobs $j --cache cB.$j psm.xta queries.q > cB.$j.new 2> cB.$j.new.err
  $OLD check --json --jobs $j --cache cB.$j psm.xta queries.q > cB.$j.old 2> cB.$j.old.err
  grep -q 'cache: 5 hits, 0 misses' cB.$j.old.err || bad "check: change store misses under parent (jobs $j)"
  cmp -s cB.$j.old cB.$j.new || bad "check: change store answer under parent (jobs $j)"
  cmp -s cA.$j.old check.old || bad "check: cached != plain (jobs $j)"
  for f in cA.$j/*.psve; do
    g=cB.$j/$(basename $f)
    [ -f "$g" ] || { bad "entry $(basename $f) missing from change store"; continue; }
    tail -n +4 $f | sed 's/"wall_ms":[0-9.e+-]*,"created":[0-9.e+-]*//' > e.old
    tail -n +4 $g | sed 's/"wall_ms":[0-9.e+-]*,"created":[0-9.e+-]*//' > e.new
    cmp -s e.old e.new || bad "entry payload $(basename $f)"
  done
done

# --- verify --delta and its session file -----------------------------------
cp psm.xta d.xta
$OLD verify --delta --cache sO d.xta --trigger m_BolusReq --response i_BolusReq --json > dO.json 2>/dev/null
$NEW verify --delta --cache sN d.xta --trigger m_BolusReq --response i_BolusReq --json > dN.json 2>/dev/null
cmp -s dO.json dN.json || bad "verify --delta json"
for f in sO/*.psvs; do cmp -s $f sN/$(basename $f) || bad "session file $(basename $f)"; done

# --- serve: answers and error responses, cold and warm, across stores ------
printf '%s\n' '{"id":1,"model":"psm.xta","query":"E<> Pump_IO.Infusing"}' \
  '{"id":2,"model":"psm.xta","query":"sup: m_BolusReq -> c_StartInfusion ceiling 3000"}' \
  '{"id":3,"model":"psm.xta","query":"bounded: m_BolusReq -> c_StartInfusion within 1000"}' \
  '{"id":4,"model":"psm.xta","query":"sup: m_BolusReq -> c_StartInfusion ceiling 3000","limit":500}' \
  '{"id":5,"model":"psm.xta","query":"A[] iovf_BolusReq == 0"}' \
  '{"id":6,"model":"nope.xta","query":"E<> P.A"}' '{"id":7,"model":"psm.xta","query":"bogus"}' > req.ldjson
for side in old new; do
  eval "P=\$$(echo $side | tr a-z A-Z)"
  $P serve < req.ldjson > serve.$side 2>/dev/null
  $P serve --cache sv.$side < req.ldjson > serve.cold.$side 2>/dev/null
  cp -r sv.$side sv.$side.cold
  $P serve --cache sv.$side < req.ldjson > serve.warm.$side 2>/dev/null
done
for m in serve serve.cold serve.warm; do cmp -s $m.old $m.new || bad "$m responses"; done
$NEW serve --cache sv.old.cold < req.ldjson > serve.cross.new 2>/dev/null
cmp -s serve.cross.new serve.warm.old || bad "serve: change answering from parent store"
$OLD serve --cache sv.new.cold < req.ldjson > serve.cross.old 2>/dev/null
cmp -s serve.cross.old serve.warm.new || bad "serve: parent answering from change store"

# --- query: plain, --cache cold and warm, --delta full then store ----------
printf '%s\n' 'E<> Pump_IO.Infusing' 'A[] iovf_BolusReq == 0' \
  'sup: m_BolusReq -> c_StartInfusion ceiling 3000' \
  'bounded: m_BolusReq -> c_StartInfusion within 1000' 'E<> Pump_IO.Nowhere' > qlist
k=0
while IFS= read -r qq; do
  k=$((k+1))
  for side in old new; do
    eval "P=\$$(echo $side | tr a-z A-Z)"
    $P query psm.xta "$qq" > q$k.plain.$side 2>&1; echo "rc=$?" >> q$k.plain.$side
    for run in cold warm; do
      $P query --cache qs$k.$side psm.xta "$qq" > q$k.$run.$side 2> q$k.$run.err.$side
      echo "rc=$?" >> q$k.$run.$side
    done
    for run in full store; do
      $P query --delta --cache qd$k.$side psm.xta "$qq" > q$k.$run.$side 2> q$k.$run.raw.$side
      echo "rc=$?" >> q$k.$run.$side
      nums q$k.$run.raw.$side > q$k.$run.err.$side
    done
  done
  for m in plain cold cold.err warm warm.err full full.err store store.err; do
    cmp -s q$k.$m.old q$k.$m.new || bad "query $k ($qq) $m"
  done
  for f in qd$k.old/*.psvs; do
    [ -f "$f" ] || continue
    cmp -s $f qd$k.new/$(basename $f) || bad "query $k session file $(basename $f)"
  done
done < qlist

# --- check --delta: stdout, cache: and incr: lines, before and after an edit
cp queries.q queries2.q
printf '%s\n' 'E<> Pump_IO.Nowhere' 'bogus' >> queries2.q
for side in old new; do
  eval "P=\$$(echo $side | tr a-z A-Z)"
  cp psm.xta c.xta
  $P check --delta --cache cd.$side c.xta queries2.q > cd1.$side 2> cd1.err.$side; echo "rc=$?" >> cd1.$side
  sed -i 's/guard z_exe >= 20;/guard z_exe >= 19;/' c.xta
  $P check --delta --cache cd.$side c.xta queries2.q > cd2.$side 2> cd2.err.$side; echo "rc=$?" >> cd2.$side
  $P check --delta --cache cd.$side --json c.xta queries2.q > cd3.$side 2> cd3.err.$side; echo "rc=$?" >> cd3.$side
done
for m in cd1 cd1.err cd2 cd2.err cd3 cd3.err; do
  cmp -s $m.old $m.new || bad "check --delta $m"
done
grep -q 'incr: 0 cone, 0 full' cd3.err.new || bad "check --delta rerun not all store hits"

# --- watch: an initial run and two edits, wall times stripped --------------
for side in old new; do
  eval "P=\$$(echo $side | tr a-z A-Z)"
  cp psm.xta w.xta
  $P watch w.xta -q 'E<> Pump_IO.Infusing' \
    -q 'sup: m_BolusReq -> i_BolusReq ceiling 3000' \
    --cache ws.$side --poll-ms 100 --max-edits 2 > w.raw.$side 2> w.err.$side &
  pid=$!
  waitfor() {
    n=0
    while [ "$(grep -c "^\[$1\]" w.raw.$side)" -lt 2 ] && [ $n -lt 600 ]; do
      sleep 0.1; n=$((n+1))
    done
  }
  waitfor initial
  sleep 0.3; sed -i 's/guard z_exe >= 20;/guard z_exe >= 19;/' w.xta
  waitfor "edit 1"
  sleep 0.3; touch w.xta
  wait $pid; echo "rc=$?" >> w.raw.$side
  nums w.raw.$side > w.$side
done
cmp -s w.old w.new || bad "watch output"
cmp -s w.err.old w.err.new || bad "watch stderr"

# --- sweep-schemes: points and summary, and a parent store ---------------
if [ "${GRID:-1}" = 1 ]; then
  AX="--axis period=20,40,60,80 --axis poll=5,10,20,80,120 --axis mech=0,1 --axis buffer=1,2 --axis policy=0,1 --axis signal=0,1 --axis in_dmax=2,5 --axis out_dmax=5,10"
  $OLD sweep-schemes $AX --jobs 2 --json --points-out p.old.ldjson > s.old.json 2>/dev/null
  $NEW sweep-schemes $AX --jobs 2 --json --points-out p.new.ldjson > s.new.json 2>/dev/null
  cmp -s p.old.ldjson p.new.ldjson || bad "sweep points"
  sed 's/"wall_ms": [0-9.]*//' s.old.json > s.old.v; sed 's/"wall_ms": [0-9.]*//' s.new.json > s.new.v
  cmp -s s.old.v s.new.v || bad "sweep summary"
  $OLD sweep-schemes $AX --jobs 2 --cache gstore --json --points-out g.old.ldjson > /dev/null 2>&1
  $NEW sweep-schemes $AX --jobs 2 --cache gstore --json --points-out g.new.ldjson > /dev/null 2> g.err
  grep -q 'cache: [0-9]* hits, 0 misses' g.err || bad "sweep: parent store misses"
  cmp -s g.new.ldjson p.old.ldjson || bad "sweep cached points"
fi
[ $fail = 0 ] && echo "ALL IDENTICAL"
exit $fail
