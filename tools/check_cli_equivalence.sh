#!/bin/sh
# CLI <-> serve-batch equivalence matrix, run by CI and the
# cli_equivalence_check ctest entry. Every one-shot question subcommand
# (why, whynot, whyempty, whysomany) under --semantics=iso and =sim, on
# the paper's Fig. 1 graph and on a BSBM-2000 graph with a two-Review
# query (where injectivity matters), is answered twice:
#   1. as a one-shot `whyq_cli KIND GRAPH QUERYFILE ... --trace`;
#   2. as the single line of a `serve-batch --trace` questions file.
# Why-empty also runs on a variant of the BSBM query whose answer is
# empty, so a real repair is compared, not only "already has answers".
# The one-shot answer must equal serve-batch's result row, and the two
# runs' `work:` and `ctx:` trace lines (deterministic counters) must be
# identical.
# Usage: check_cli_equivalence.sh PATH_TO_WHYQ_CLI [WORKDIR]
set -u

cli="${1:?usage: check_cli_equivalence.sh PATH_TO_WHYQ_CLI [WORKDIR]}"
# A relative CLI path names a file under the caller's directory, not WORKDIR.
case "$cli" in /*) ;; *) cli="$PWD/$cli" ;; esac
cd "${2:-.}" || exit 1

fail() {
  echo "check_cli_equivalence: FAIL: $1" >&2
  exit 1
}

checked=0

# check GRAPH QUERYFILE KIND ARG [FLAG...]
#   ARG is the entity list (why/whynot), the target (whysomany) or "-"
#   (whyempty); the flags go to both runs.
check() {
  graph=$1 query=$2 kind=$3 arg=$4
  shift 4
  case "$kind" in
    why|whynot) flag="--entities=$arg" ;;
    whysomany) flag="--target=$arg" ;;
    *) flag="" arg="" ;;
  esac
  what="$kind $graph $query $arg $*"
  # $flag is empty for whyempty and must then vanish, hence unquoted.
  # shellcheck disable=SC2086
  "$cli" "$kind" "$graph" "$query" $flag "$@" --trace > eq.one.out 2>&1
  rc=$?
  [ "$rc" -le 2 ] || fail "$what: one-shot exited $rc: $(cat eq.one.out)"
  echo "$kind $query $arg" > eq.questions
  "$cli" serve-batch "$graph" eq.questions --workers=1 "$@" --trace \
    > eq.batch.out 2>&1 || fail "$what: serve-batch failed: $(cat eq.batch.out)"
  detail=$(sed -n "s/^$kind line 1 *ok *[0-9.]*ms\( truncated\)\{0,1\}\( cached\)\{0,1\}  //p" \
           eq.batch.out)
  [ -n "$detail" ] || fail "$what: no serve-batch result row"
  first=$(head -n 1 eq.one.out)
  if [ "$rc" -eq 2 ]; then
    want="no rewrite found"
  else
    case "$kind" in
      why|whynot) want=$first ;;
      whyempty)
        # serve-batch prints the cost with six decimals, the one-shot with
        # two; "already has answers" is a repair at cost 0.
        cost=$(echo "$detail" | sed -n 's/^repaired at cost //p')
        [ -n "$cost" ] || fail "$what: serve-batch row '$detail'"
        if [ "$first" = "the query already has answers" ]; then
          want="repaired at cost 0.000000"
        else
          want="repaired at cost $cost"
          first=$(echo "$first" | sed 's/ via {.*//')
          [ "$first" = "repaired at cost $(printf '%.2f' "$cost")" ] ||
            fail "$what: one-shot '$first' vs serve-batch '$detail'"
        fi
        ;;
      whysomany) want=$(echo "$first" | sed 's/ via {.*//') ;;
    esac
  fi
  [ "$detail" = "$want" ] ||
    fail "$what: one-shot '$want' vs serve-batch '$detail'"
  for counters in work ctx; do
    one=$(grep -m 1 "^$counters:" eq.one.out)
    batch=$(grep -m 1 "^$counters:" eq.batch.out)
    [ -n "$one" ] || fail "$what: one-shot printed no $counters: line"
    [ "$one" = "$batch" ] ||
      fail "$what: one-shot '$one' vs serve-batch '$batch'"
  done
  checked=$((checked + 1))
}

# --- Fig. 1 ----------------------------------------------------------------
ids=$("$cli" figure1 --out=eq_f1 | sed -n 's/^ids: //p')
[ -n "$ids" ] || fail "figure1 printed no ids"
# The line is "a5=N s5=N s8=N s9=N" — our own output, safe to eval.
eval "$ids"

# --- BSBM-2000, two Reviews on one Product ---------------------------------
"$cli" generate --bsbm=2000 --seed=7 --out=eq_bsbm.graph > /dev/null ||
  fail "generate failed"
printf 'node r1 Review rating >= i:5\nnode r2 Review\nnode p Product\nedge r1 p reviewOf\nedge r2 p reviewOf\noutput p\n' \
  > eq_bsbm.query
sed 's/rating >= i:5/rating > i:10/' eq_bsbm.query > eq_bsbm_empty.query
printf 'node p Product\noutput p\n' > eq_bsbm_all.query
list_ids() {
  q=$1
  shift
  "$cli" query eq_bsbm.graph "$q" --limit=100000 "$@" |
    sed -n 's/^  node \([0-9]*\).*/\1/p' | sort
}
# Why: two isomorphism answers (simulation answers are a superset).
list_ids eq_bsbm.query > eq_bsbm.iso.ids
answers=$(head -n 2 eq_bsbm.iso.ids | paste -s -d, -)
# Why-not: two products that are no answer under either semantics.
list_ids eq_bsbm.query --semantics=sim > eq_bsbm.sim.ids
list_ids eq_bsbm_all.query > eq_bsbm.all.ids
missing=$(comm -23 eq_bsbm.all.ids eq_bsbm.sim.ids | head -n 2 |
          paste -s -d, -)
[ -n "$answers" ] && [ -n "$missing" ] || fail "no BSBM question ids"

for sem in iso sim; do
  check eq_f1.graph eq_f1.query why "$a5,$s5" --semantics=$sem
  check eq_f1.graph eq_f1.query whynot "$s8,$s9" --semantics=$sem
  check eq_f1.graph eq_f1.query whyempty - --semantics=$sem
  check eq_f1.graph eq_f1.query whysomany 1 --semantics=$sem
  check eq_bsbm.graph eq_bsbm.query why "$answers" --guard=2000 \
    --semantics=$sem
  check eq_bsbm.graph eq_bsbm.query whynot "$missing" --guard=2000 \
    --semantics=$sem
  check eq_bsbm.graph eq_bsbm.query whyempty - --semantics=$sem
  check eq_bsbm.graph eq_bsbm_empty.query whyempty - --semantics=$sem
  check eq_bsbm.graph eq_bsbm.query whysomany 1000 --semantics=$sem
done

echo "check_cli_equivalence: OK ($checked questions: answers and work counters match serve-batch)"
