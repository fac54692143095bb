#!/bin/sh
# End-to-end smoke test of the frozen-snapshot pipeline, run by CI and
# the snapshot_smoke_check ctest entry:
#   1. write the Fig. 1 fixture and freeze it: `snapshot build`;
#   2. `snapshot info` must print the expected header fields and all 20
#      sections of the version-1 format (docs/SNAPSHOT_FORMAT.md);
#   3. the snapshot-backed and text-graph paths must agree byte-for-byte
#      on a query's answer listing (--snapshot equivalence);
#   4. start `whyq_cli serve` *from the snapshot image* and serve one
#      why request over the socket (requires python3; steps 1-3 run
#      regardless).
# Usage: check_snapshot_smoke.sh PATH_TO_WHYQ_CLI [WORKDIR]
set -u

cli="${1:?usage: check_snapshot_smoke.sh PATH_TO_WHYQ_CLI [WORKDIR]}"
# A relative CLI path names a file under the caller's directory, not WORKDIR.
case "$cli" in /*) ;; *) cli="$PWD/$cli" ;; esac
cd "${2:-.}" || exit 1

fail() {
  echo "check_snapshot_smoke: FAIL: $1" >&2
  exit 1
}

ids=$("$cli" figure1 --out=snap_f1 | sed -n 's/^ids: //p')
[ -n "$ids" ] || fail "figure1 printed no ids"
# The line is "a5=N s5=N s8=N s9=N" — our own output, safe to eval.
eval "$ids"

# --- 1. freeze -------------------------------------------------------------
"$cli" snapshot build snap_f1.graph --out=snap_f1.whyqsnap ||
  fail "snapshot build failed"
[ -s snap_f1.whyqsnap ] || fail "snapshot build wrote nothing"

# --- 2. info ---------------------------------------------------------------
info=$("$cli" snapshot info snap_f1.whyqsnap) || fail "snapshot info failed"
echo "$info" | grep -q 'snapshot v1' || fail "info: missing version line"
for field in file_bytes node_count edge_count fingerprint payload_hash; do
  echo "$info" | grep -q "$field" || fail "info: missing field '$field'"
done
sections=$(echo "$info" | grep -c '^  [0-9]')
[ "$sections" -eq 20 ] ||
  fail "info: expected 20 sections, saw $sections"

# --- 3. text vs snapshot equivalence --------------------------------------
printf 'node x Cellphone\nnode b Brand name = s:Samsung\nedge x b brand\noutput x\n' \
  > snap_f1_smoke.query
"$cli" query snap_f1.graph snap_f1_smoke.query > snap_f1.text.out ||
  fail "query over the text graph failed"
"$cli" query snap_f1.whyqsnap snap_f1_smoke.query --snapshot \
  > snap_f1.snap.out || fail "query over the snapshot failed"
cmp -s snap_f1.text.out snap_f1.snap.out ||
  fail "snapshot-backed answers differ from the text-graph answers"
grep -q 'answers' snap_f1.text.out || fail "query printed no answer count"

# --- 4. serve one request from the image ----------------------------------
if ! command -v python3 >/dev/null 2>&1; then
  echo "check_snapshot_smoke: python3 not found, skipping serve step" >&2
  echo "check_snapshot_smoke: OK (build, info, equivalence)"
  exit 0
fi

rm -f snap_f1.serve.log
"$cli" serve snap_f1.whyqsnap --snapshot --workers=2 \
  > snap_f1.serve.log 2>&1 &
pid=$!

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^whyq_server listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         snap_f1.serve.log)
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
[ -n "$port" ] || {
  echo "check_snapshot_smoke: no listening line; log:" >&2
  cat snap_f1.serve.log >&2
  kill "$pid" 2>/dev/null
  exit 1
}

QUERY=$(cat snap_f1.query) PORT="$port" A5="$a5" S5="$s5" python3 - <<'EOF'
import json, os, socket, sys

port = int(os.environ["PORT"])
query = os.environ["QUERY"]
a5, s5 = int(os.environ["A5"]), int(os.environ["S5"])

s = socket.create_connection(("127.0.0.1", port), timeout=20)
r = s.makefile("r", encoding="utf-8")
s.sendall((json.dumps({"id": 1, "question": "why", "query": query,
                       "entities": [a5, s5], "guard": 0}) + "\n").encode())
line = r.readline()
if not line:
    print("check_snapshot_smoke: FAIL: no response from snapshot-backed "
          "server", file=sys.stderr)
    sys.exit(1)
resp = json.loads(line)
if resp.get("status") != "ok" or not resp.get("answer", {}).get("found"):
    print(f"check_snapshot_smoke: FAIL: bad response {resp}",
          file=sys.stderr)
    sys.exit(1)
s.close()
EOF
rc=$?
kill "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
[ "$rc" -eq 0 ] || exit 1

echo "check_snapshot_smoke: OK (build, info, equivalence, served 1 request)"
