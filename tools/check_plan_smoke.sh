#!/bin/sh
# End-to-end smoke test of the persistent-plan pipeline, run by CI and
# the plan_smoke_check ctest entry:
#   1. answer the Fig. 1 why-question three ways — no store, cold store
#      (builds + persists the plan), and a fresh process over the warm
#      store (serves from it) — all three outputs must be byte-equal;
#   2. `explain-plan` must pretty-print the stored file and, given the
#      source graph, declare it valid; given a *different* graph it must
#      reject it (exit 2, never served);
#   3. a corrupted copy of the plan must be rejected end-to-end: the
#      question still answers (rebuilt), byte-equal, and the bad file is
#      deleted + counted plan_store_invalid;
#   4. build plans via serve-batch --stats-json, then restart: the new
#      process's first repeated question must be served from the store
#      (plan_store_hits >= 1) with the reconciliation invariant
#      plan_store_hits + plan_store_misses == cache_misses holding in
#      both runs, and a warm-load run must answer its first question
#      from the prepared cache (python3 required; steps 1-3 run
#      regardless).
# Usage: check_plan_smoke.sh PATH_TO_WHYQ_CLI [WORKDIR]
set -u

cli="${1:?usage: check_plan_smoke.sh PATH_TO_WHYQ_CLI [WORKDIR]}"
# A relative CLI path names a file under the caller's directory, not WORKDIR.
case "$cli" in /*) ;; *) cli="$PWD/$cli" ;; esac
cd "${2:-.}" || exit 1

fail() {
  echo "check_plan_smoke: FAIL: $1" >&2
  exit 1
}

ids=$("$cli" figure1 --out=plan_f1 | sed -n 's/^ids: //p')
[ -n "$ids" ] || fail "figure1 printed no ids"
# The line is "a5=N s5=N s8=N s9=N" — our own output, safe to eval.
eval "$ids"

rm -rf plan_sm_store plan_sm_store2
mkdir -p plan_sm_store

# --- 1. no-store / cold-store / warm-restart byte equality -----------------
"$cli" why plan_f1.graph plan_f1.query --entities="$a5,$s5" \
  > plan_sm.base.out || fail "baseline why failed"
"$cli" why plan_f1.graph plan_f1.query --entities="$a5,$s5" \
  --plan-store=plan_sm_store > plan_sm.cold.out ||
  fail "cold-store why failed"
cmp -s plan_sm.base.out plan_sm.cold.out ||
  fail "cold-store answer differs from the storeless answer"
plan=$(ls plan_sm_store/*.plan 2>/dev/null | head -n 1)
[ -n "$plan" ] || fail "cold run persisted no plan file"
# A fresh process over the warm store (the restart): must serve the
# stored plan and produce the identical explanation.
"$cli" why plan_f1.graph plan_f1.query --entities="$a5,$s5" \
  --plan-store=plan_sm_store > plan_sm.warm.out ||
  fail "warm-restart why failed"
cmp -s plan_sm.base.out plan_sm.warm.out ||
  fail "store-served answer differs from the storeless answer"

# --- 2. explain-plan -------------------------------------------------------
info=$("$cli" explain-plan "$plan") || fail "explain-plan failed"
echo "$info" | grep -q 'compiled plan v1' || fail "explain-plan: no version"
for field in 'store key' 'graph fingerprint' 'graph epoch' 'semantics' \
             'answers' 'candidates' 'sampled paths' 'footprint'; do
  echo "$info" | grep -q "$field" ||
    fail "explain-plan: missing field '$field'"
done
"$cli" explain-plan "$plan" plan_f1.graph > plan_sm.valid.out ||
  fail "explain-plan rejected the plan against its own graph"
grep -q 'valid for' plan_sm.valid.out ||
  fail "explain-plan: no validity verdict"
# Against a different graph the plan must be INVALID (exit 2).
"$cli" generate --bsbm=50 --out=plan_sm_other.graph > /dev/null ||
  fail "generate failed"
"$cli" explain-plan "$plan" plan_sm_other.graph > plan_sm.invalid.out 2>&1
[ $? -eq 2 ] || fail "explain-plan accepted a foreign graph"
grep -q 'INVALID' plan_sm.invalid.out ||
  fail "explain-plan: no INVALID verdict for a foreign graph"

# --- 3. a corrupted plan is rebuilt, never served --------------------------
# Flip one byte inside the first section payload (offset 320: the meta
# row — covered by the checksum; padding is not).
cp "$plan" plan_sm.bak
printf '\377' | dd of="$plan" bs=1 seek=321 count=1 conv=notrunc 2>/dev/null ||
  fail "dd corruption failed"
"$cli" why plan_f1.graph plan_f1.query --entities="$a5,$s5" \
  --plan-store=plan_sm_store > plan_sm.corrupt.out ||
  fail "why over a corrupt store failed"
cmp -s plan_sm.base.out plan_sm.corrupt.out ||
  fail "answer over a corrupt store differs (stale plan served?)"
[ ! -f "$plan" ] || {
  # The rebuild re-persists under the same key; the rewritten file must
  # at least differ from the corrupted bytes and validate again.
  "$cli" explain-plan "$plan" plan_f1.graph > /dev/null ||
    fail "corrupt plan file survived un-repaired"
}

# --- 4. serve-batch restart: first repeated question is a store hit --------
if ! command -v python3 >/dev/null 2>&1; then
  echo "check_plan_smoke: python3 not found, skipping serve-batch phase" >&2
  echo "check_plan_smoke: OK (byte-equal, explain-plan, corruption rejected)"
  exit 0
fi

cat > plan_sm.questions <<EOF
why plan_f1.query $a5,$s5
whynot plan_f1.query $s8,$s9
why plan_f1.query $a5,$s5
EOF

# Run 1 (cold store, default memory cache): each distinct question
# misses the empty store once and is persisted; the repeated question
# hits the memory cache and never probes the store, so hits == 0 is
# deterministic. (With --cache=0 here the repeat could legitimately hit
# the plan the background writer flushed moments earlier in this run.)
"$cli" serve-batch plan_f1.graph plan_sm.questions \
  --plan-store=plan_sm_store2 --stats-json=plan_sm.run1.json > /dev/null ||
  fail "serve-batch run 1 failed"
# Run 2: a brand-new process over the same store, --cache=0 so every
# request is a prepare attempt — each must be served from the store.
"$cli" serve-batch plan_f1.graph plan_sm.questions --cache=0 \
  --plan-store=plan_sm_store2 --stats-json=plan_sm.run2.json > /dev/null ||
  fail "serve-batch run 2 failed"

python3 - <<'EOF' || exit 1
import json, sys

def fail(msg):
    print("check_plan_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)

r1 = json.load(open("plan_sm.run1.json"))["counters"]
r2 = json.load(open("plan_sm.run2.json"))["counters"]
for name, c in (("run1", r1), ("run2", r2)):
    if c["plan_store_hits"] + c["plan_store_misses"] != c["cache_misses"]:
        fail(f"{name}: plan_store_hits {c['plan_store_hits']} + misses "
             f"{c['plan_store_misses']} != cache_misses {c['cache_misses']}")
if r1["plan_store_writes"] < 1:
    fail(f"run1 persisted nothing: writes={r1['plan_store_writes']}")
if r1["plan_store_hits"] != 0:
    fail(f"run1 hit a cold store: hits={r1['plan_store_hits']}")
if r2["plan_store_hits"] < 1:
    fail(f"run2 (restart) never hit the store: hits={r2['plan_store_hits']}")
if r2["plan_store_misses"] != 0:
    fail(f"run2 missed a warm store: misses={r2['plan_store_misses']}")
if r2["plan_store_invalid"] != 0:
    fail(f"run2 rejected plans: invalid={r2['plan_store_invalid']}")
print("check_plan_smoke: restart counters OK "
      f"(run1 writes={r1['plan_store_writes']}, run2 "
      f"hits={r2['plan_store_hits']})")
EOF

# Run 3: default in-memory cache -> boot warm-load. The very first
# question must already be a prepared-cache hit ("cached" marker).
"$cli" serve-batch plan_f1.graph plan_sm.questions \
  --plan-store=plan_sm_store2 > plan_sm.run3.out ||
  fail "serve-batch run 3 failed"
first=$(grep '^why line 1 ' plan_sm.run3.out | head -n 1)
echo "$first" | grep -q ' cached ' ||
  fail "warm-loaded process did not answer its first question from cache: $first"

echo "check_plan_smoke: OK (byte-equal, explain-plan, corruption rejected, restart hits store, warm boot cached)"
