#!/bin/sh
# End-to-end smoke test of the whyq_server daemon, run by CI and the
# server_smoke ctest entry:
#   1. start `whyq_cli serve` on an ephemeral port and parse the bound
#      port from its "listening on 127.0.0.1:PORT" line;
#   2. drive a pipelined round-trip from a python3 client: why / stats /
#      malformed requests, checking statuses and id echo;
#   3. send a final burst, SIGTERM the daemon mid-burst, and require that
#      every response line still arrives (admitted work drains) followed
#      by a clean EOF;
#   4. the daemon must exit 0 (clean drain) within the drain deadline;
#   5. the --stats-json dump must exist and reconcile:
#      {"server":{...},"service":{"<graph>":{...}}} with sane counters.
# Usage: check_server_smoke.sh PATH_TO_WHYQ_CLI [WORKDIR]
set -u

cli="${1:?usage: check_server_smoke.sh PATH_TO_WHYQ_CLI [WORKDIR]}"
# A relative CLI path names a file under the caller's directory, not WORKDIR.
case "$cli" in /*) ;; *) cli="$PWD/$cli" ;; esac
cd "${2:-.}" || exit 1

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_server_smoke: python3 not found, skipping" >&2
  exit 0
fi

ids=$("$cli" figure1 --out=svr_f1 | sed -n 's/^ids: //p')
[ -n "$ids" ] || { echo "check_server_smoke: figure1 printed no ids" >&2; exit 1; }
# The line is "a5=N s5=N s8=N s9=N" — our own output, safe to eval.
eval "$ids"

rm -f svr_f1.stats.json svr_f1.serve.log
"$cli" serve svr_f1.graph --workers=2 --stats-json=svr_f1.stats.json \
  --stats-period-ms=100 > svr_f1.serve.log 2>&1 &
pid=$!

# The daemon prints the listening line before entering its loop.
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^whyq_server listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         svr_f1.serve.log)
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
[ -n "$port" ] || {
  echo "check_server_smoke: no listening line; log:" >&2
  cat svr_f1.serve.log >&2
  kill "$pid" 2>/dev/null
  exit 1
}

QUERY=$(cat svr_f1.query) PORT="$port" SERVER_PID="$pid" \
  A5="$a5" S5="$s5" python3 - <<'EOF'
import json, os, signal, socket, sys

port = int(os.environ["PORT"])
pid = int(os.environ["SERVER_PID"])
query = os.environ["QUERY"]
a5, s5 = int(os.environ["A5"]), int(os.environ["S5"])

def fail(msg):
    print("check_server_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)

def connect():
    s = socket.create_connection(("127.0.0.1", port), timeout=20)
    return s, s.makefile("r", encoding="utf-8")

def ask(i):
    return json.dumps({"id": i, "question": "why", "query": query,
                       "entities": [a5, s5], "guard": 0}) + "\n"

# --- round-trip: pipelined why + stats + malformed ------------------------
s, r = connect()
burst = ask(1) + ask(2) + '{"id":3,"question":"stats"}\n' + "not json\n"
s.sendall(burst.encode())
got = {}
for _ in range(4):
    line = r.readline()
    if not line:
        fail("connection closed before all round-trip responses")
    resp = json.loads(line)
    got[json.dumps(resp.get("id"))] = resp
for i in ("1", "2"):
    if i not in got or got[i]["status"] != "ok":
        fail(f"why request {i} did not come back ok: {got}")
    if not got[i]["answer"]["found"]:
        fail(f"why request {i} found no explanation")
if got.get("3", {}).get("stats", {}).get("server", {}).get("requests", 0) < 3:
    fail(f"stats response malformed: {got.get('3')}")
if got.get("null", {}).get("status") != "bad_request":
    fail(f"malformed line not answered with bad_request: {got.get('null')}")
s.close()

# --- SIGTERM under a burst: admitted responses drain, then EOF ------------
s, r = connect()
n = 6
s.sendall("".join(ask(10 + i) for i in range(n)).encode())
os.kill(pid, signal.SIGTERM)
drained = 0
while True:
    line = r.readline()
    if not line:
        break
    resp = json.loads(line)
    if resp["status"] not in ("ok", "rejected", "shutdown"):
        fail(f"unexpected drain response: {resp}")
    drained += 1
if drained > n:
    fail(f"more responses than requests: {drained} > {n}")
print(f"check_server_smoke: round-trip ok, drain delivered {drained}/{n} "
      "responses before EOF")
s.close()
EOF
[ $? -eq 0 ] || { kill "$pid" 2>/dev/null; exit 1; }

# The daemon must exit 0 on its own, within the (default 5 s) drain
# deadline plus scheduling slack.
rc=""
for _ in $(seq 1 200); do
  if ! kill -0 "$pid" 2>/dev/null; then
    wait "$pid"
    rc=$?
    break
  fi
  sleep 0.05
done
[ -n "$rc" ] || {
  echo "check_server_smoke: daemon still running after SIGTERM" >&2
  kill -9 "$pid" 2>/dev/null
  exit 1
}
[ "$rc" -eq 0 ] || {
  echo "check_server_smoke: daemon exited $rc (expected clean drain 0)" >&2
  cat svr_f1.serve.log >&2
  exit 1
}

# --- the periodic stats dump: shape + counter sanity ----------------------
python3 - <<'EOF'
import json, sys

def fail(msg):
    print("check_server_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)

try:
    d = json.load(open("svr_f1.stats.json"))
except Exception as e:  # noqa: BLE001 - any parse failure is the finding
    fail(f"stats dump unreadable: {e}")

srv = d.get("server")
if srv is None:
    fail("dump has no 'server' block")
for key in ("accepted", "refused", "closed", "idle_closed", "requests",
            "responded", "admitted", "rejected", "bad_lines", "drained"):
    if key not in srv:
        fail(f"server block missing '{key}'")
if srv["accepted"] < 2 or srv["requests"] < 4 or srv["admitted"] < 2:
    fail(f"implausible server counters: {srv}")
# bad_lines also counts oversized/overflow violations that never became
# complete request lines, so the reconciliation is an inequality.
if srv["admitted"] + srv["rejected"] > srv["requests"]:
    fail(f"admitted + rejected exceed requests: {srv}")
svc = d.get("service")
if not isinstance(svc, dict) or "svr_f1" not in svc:
    fail(f"dump has no per-graph service block: {list(d)}")
if svc["svr_f1"]["counters"]["completed"] < 2:
    fail(f"service completed fewer requests than the client saw")
print("check_server_smoke: OK (clean drain, stats dump reconciles)")
EOF
exit $?
