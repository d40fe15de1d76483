#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== request decoder soak (differential, fixed seed)"
# One million generated and damaged request lines: the one-pass decoder
# behind Request::parse must match the Json-tree reference on every one.
cargo test -p cit-serve --release -q --test decode_diff -- --ignored decoder_soak_matches_tree_parse

echo "== cargo doc (deny warnings) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo test --workspace --doc -q

echo "== bench smoke (--quick)"
cargo bench -p cit-bench --bench components -- --quick
test -s BENCH_compute.json || { echo "BENCH_compute.json missing or empty" >&2; exit 1; }

echo "== matmul kernel path (simd_level)"
# The matmul kernels pick their AVX2 copy at runtime. A host whose CPU
# lists avx2 must run it, so the fast path cannot be lost silently (for
# example by a dispatch bug that always falls back to the portable copy).
simd_level=$(jq -r '.simd_level // "missing"' BENCH_compute.json)
echo "simd_level: $simd_level"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && [ "$simd_level" != "avx2" ]; then
  echo "!!! /proc/cpuinfo lists avx2 but the kernels run '$simd_level' !!!" >&2
  exit 1
fi

echo "== bench regression guard (speedups vs baseline)"
# Every speedup field in BENCH_compute.json is current-vs-baseline for one
# kernel; anything below 0.8x is a loud regression warning so a slow kernel
# cannot hide inside a green CI run. The nt/nn sanity ratio guards the
# transposed-layout fix specifically: nt must stay within 2x of nn.
# Warnings stay non-fatal by default (quick-mode numbers are noisy);
# CI_STRICT_BENCH=1 turns any violation into a hard failure.
jq -r '.speedups | to_entries[] | "\(.key) \(.value)"' BENCH_compute.json | {
  slow=0
  while read -r name speedup; do
    if awk -v s="$speedup" 'BEGIN { exit !(s < 0.8) }'; then
      echo "!!! BENCH REGRESSION: $name at ${speedup}x — below the 0.8x floor !!!" >&2
      slow=$((slow + 1))
    fi
  done
  nt_ratio=$(jq -r '.nt_vs_nn_ratio // empty' BENCH_compute.json)
  if [ -n "$nt_ratio" ]; then
    if awk -v r="$nt_ratio" 'BEGIN { exit !(r > 2.0 || r != r) }'; then
      echo "!!! BENCH REGRESSION: nt_vs_nn_ratio at ${nt_ratio} — nt kernel above 2x of nn !!!" >&2
      slow=$((slow + 1))
    fi
  else
    echo "!!! BENCH REGRESSION: nt_vs_nn_ratio missing from BENCH_compute.json !!!" >&2
    slow=$((slow + 1))
  fi
  if [ "$slow" -eq 0 ]; then
    echo "all speedups at or above the 0.8x floor; nt within 2x of nn"
  elif [ "${CI_STRICT_BENCH:-0}" = "1" ]; then
    echo "CI_STRICT_BENCH=1: failing on $slow bench regression(s)" >&2
    exit 1
  fi
  true
}

echo "== serve smoke (servebench --quick --clients 16)"
cargo run --release -q -p cit-bench --bin servebench -- --quick --clients 16 \
  --out results/bench_serve_smoke.json
test -s results/bench_serve_smoke.json || { echo "serve smoke report missing" >&2; exit 1; }

echo "== overload smoke (64 clients vs queue capacity)"
# A quick 64-client closed-loop sweep must terminate (no reactor hangs),
# report a finite p99, and account for every request: offered is exactly
# answered + typed overloaded rejects — servebench itself exits nonzero
# if anything else (I/O error, malformed reply) happened.
timeout 300 cargo run --release -q -p cit-bench --bin servebench -- \
  --quick --clients 64 --out results/bench_serve_overload.json
jq -e '.levels.c64
       | (.p99_us > 0 and .p99_us < 1e9)
         and (.offered == .requests + .rejects)
         and (.connect_errors == 0)
         and (.protocol_errors == 0)' \
  results/bench_serve_overload.json >/dev/null \
  || { echo "overload smoke: c64 level failed its invariants" >&2;
       cat results/bench_serve_overload.json >&2; exit 1; }

echo "== serve fault-probe noise guard (disabled faults vs committed baseline)"
# The serve hot path now carries fault-injection probes (socket reads/
# writes, spill I/O, batch completion). With no plan armed they must stay
# effectively free: the quick c64 run above may not fall below half the
# committed full-run BENCH_serve.json throughput. Quick-mode numbers are
# noisy, so the violation is a loud warning by default and fatal only
# under CI_STRICT_BENCH=1 (same policy as the compute bench guard).
if [ -s BENCH_serve.json ]; then
  baseline=$(jq -r '.levels.c64.req_per_s // empty' BENCH_serve.json)
  current=$(jq -r '.levels.c64.req_per_s // empty' results/bench_serve_overload.json)
  if [ -n "$baseline" ] && [ -n "$current" ]; then
    if awk -v c="$current" -v b="$baseline" 'BEGIN { exit !(c < 0.5 * b) }'; then
      echo "!!! SERVE REGRESSION: c64 at ${current} req/s — below half the committed ${baseline} req/s !!!" >&2
      if [ "${CI_STRICT_BENCH:-0}" = "1" ]; then
        echo "CI_STRICT_BENCH=1: failing on serve-path regression" >&2
        exit 1
      fi
    else
      echo "c64 at ${current} req/s vs committed ${baseline} req/s: within the 0.5x floor"
    fi
  fi
fi

echo "== observability smoke (cit-serve stats + /metrics + cit-top)"
# Start a server with an admin listener on ephemeral ports, hit the
# stats op through cit-top and the exposition endpoint over plain HTTP,
# then shut it down via the protocol.
cargo build --release -q -p cit-serve --bins
rm -f results/cit_serve_addr.txt
mkdir -p results
target/release/cit-serve --untrained --assets 2 --seed 7 \
  --admin 127.0.0.1:0 --addr-file results/cit_serve_addr.txt &
SERVE_PID=$!
for _ in $(seq 1 50); do
  test -s results/cit_serve_addr.txt && break
  sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^addr=//p' results/cit_serve_addr.txt)
ADMIN_ADDR=$(sed -n 's/^admin=//p' results/cit_serve_addr.txt)
test -n "$SERVE_ADDR" || { echo "cit-serve did not report an address" >&2; exit 1; }
# cit-top --once --json round-trips the stats payload through the typed parser.
target/release/cit-top --addr "$SERVE_ADDR" --once --json | grep -q '"op":"stats"' \
  || { echo "cit-top --once --json did not return a stats line" >&2; exit 1; }
# The admin endpoint serves the expected metric families.
METRICS=$(target/release/cit-top --metrics "$ADMIN_ADDR")
for family in serve_requests serve_latency_window_bucket serve_queue_depth telemetry_uptime_seconds; do
  echo "$METRICS" | grep -q "$family" \
    || { echo "/metrics missing family $family" >&2; exit 1; }
done
target/release/cit-top --addr "$SERVE_ADDR" --once >/dev/null
printf '{"op":"shutdown"}\n' | timeout 10 bash -c "exec 3<>/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}; cat >&3; head -c1 <&3 >/dev/null" || true
wait "$SERVE_PID"
rm -f results/cit_serve_addr.txt

echo "== checkpoint save -> kill -> resume smoke"
# Bitwise resume-after-kill guarantee, including a simulated crash during
# save (truncated temp file must not corrupt the previous checkpoint).
cargo test -p cit-core --test checkpoint_resume -q
# End-to-end --resume wiring: first run trains + checkpoints, second run
# must resume from the persisted checkpoints instead of retraining.
rm -rf results/checkpoints results/table4_run.jsonl
cargo run --release -q -p cit-bench --bin table4 -- --scale smoke --resume >/dev/null
grep -q 'checkpoint.save' results/table4_run.jsonl || { echo "no checkpoint.save records" >&2; exit 1; }
cargo run --release -q -p cit-bench --bin table4 -- --scale smoke --resume >/dev/null
grep -q 'checkpoint.resume' results/table4_run.jsonl || { echo "no checkpoint.resume records" >&2; exit 1; }

echo "== chaos smoke (fault plan: NaN gradient + failed checkpoint write)"
# Under the canned fault plan a short training run must survive an injected
# NaN gradient (rollback + recovery) and a faked checkpoint-write failure
# without aborting, and say so in the telemetry stream.
rm -rf results/checkpoints results/table4_run.jsonl
CIT_FAULT_PLAN=crates/faults/plans/chaos_smoke.plan \
  cargo run --release -q -p cit-bench --bin table4 -- --scale smoke --resume >/dev/null
grep -q 'supervisor.rollback' results/table4_run.jsonl || { echo "no supervisor.rollback records" >&2; exit 1; }
grep -q 'supervisor.recovered' results/table4_run.jsonl || { echo "no supervisor.recovered records" >&2; exit 1; }
rm -rf results/checkpoints

echo "== chaos-serve smoke (live server under serve_chaos.plan)"
# A cit-serve instance armed with the serve-plane fault plan — stalled and
# dying sockets, short flushes, delayed batches against a 25 ms request
# deadline, torn/corrupt/failed spills — must survive a concurrent client
# sweep with zero protocol errors: every injected fault surfaces as a
# typed retryable reject or a survived disruption (reconnect / session
# reopen), the server shuts down cleanly, and the accounting still
# balances. The same plan backs crates/serve/tests/chaos.rs.
rm -rf results/chaos_spill results/cit_serve_chaos_addr.txt
mkdir -p results/chaos_spill
CIT_FAULT_PLAN=crates/faults/plans/serve_chaos.plan \
  target/release/cit-serve --untrained --assets 4 --seed 42 \
  --spill-dir results/chaos_spill --session-ttl-ms 40 --tick-ms 10 \
  --request-deadline-ms 25 \
  --addr-file results/cit_serve_chaos_addr.txt \
  2> results/chaos_serve.log &
CHAOS_PID=$!
for _ in $(seq 1 50); do
  test -s results/cit_serve_chaos_addr.txt && break
  sleep 0.1
done
CHAOS_ADDR=$(sed -n 's/^addr=//p' results/cit_serve_chaos_addr.txt)
test -n "$CHAOS_ADDR" || { echo "chaos cit-serve did not report an address" >&2; exit 1; }
grep -q 'fault injection armed' results/chaos_serve.log \
  || { echo "chaos cit-serve did not arm the fault plan" >&2; cat results/chaos_serve.log >&2; exit 1; }
# servebench --addr runs its clients in resilient mode: it exits nonzero on
# any protocol error, so injected faults may only show up as typed rejects
# or survived disruptions.
timeout 300 cargo run --release -q -p cit-bench --bin servebench -- \
  --quick --clients 8 --addr "$CHAOS_ADDR" --out results/bench_serve_chaos.json
jq -e '.levels.c8
       | (.offered == .requests + .rejects)
         and (.connect_errors == 0)
         and (.protocol_errors == 0)
         and (.disruptions >= 1)' \
  results/bench_serve_chaos.json >/dev/null \
  || { echo "chaos-serve smoke: c8 level failed its invariants" >&2;
       cat results/bench_serve_chaos.json >&2; exit 1; }
printf '{"op":"shutdown"}\n' | timeout 10 bash -c "exec 3<>/dev/tcp/${CHAOS_ADDR%:*}/${CHAOS_ADDR##*:}; cat >&3; head -c1 <&3 >/dev/null" || true
wait "$CHAOS_PID" || { echo "chaos cit-serve exited uncleanly" >&2; exit 1; }
rm -rf results/chaos_spill results/cit_serve_chaos_addr.txt

echo "== routerbench smoke (regime router vs single models)"
# Trains a 3-model roster, backtests the meta-router against each slot,
# and leaves the checkpoints in results/checkpoints/ for the multi-model
# serve smoke below. The report must carry metrics for the router and
# every model, and the per-slot pick counts must sum to the test days.
timeout 600 cargo run --release -q -p cit-bench --bin routerbench -- \
  --quick --out results/router_backtest_smoke.json
jq -e '(.router.ar | type == "number")
       and ((.models | length) == .num_models)
       and (([.models[].picks] | add) == .test_days)
       and ([.models[].metrics.sr] | all(type == "number"))' \
  results/router_backtest_smoke.json >/dev/null \
  || { echo "routerbench smoke: report failed its invariants" >&2;
       cat results/router_backtest_smoke.json >&2; exit 1; }
for k in 0 1; do
  test -s "results/checkpoints/routerbench_m${k}.cit" \
    || { echo "routerbench smoke left no checkpoint m${k}" >&2; exit 1; }
done

echo "== multi-model serve smoke (two slots + auto router)"
# Serve two of the routerbench checkpoints as named slots, drive a mixed
# workload that opens sessions against the default slot, the named slot
# and the auto router, then reconcile the per-model stats breakdown
# through cit-top --once --json.
rm -f results/cit_serve_mm_addr.txt
target/release/cit-serve \
  --checkpoint results/checkpoints/routerbench_m0.cit \
  --model alt=results/checkpoints/routerbench_m1.cit \
  --router-seed 7 --assets 4 --seed 42 \
  --addr-file results/cit_serve_mm_addr.txt &
MM_PID=$!
for _ in $(seq 1 50); do
  test -s results/cit_serve_mm_addr.txt && break
  sleep 0.1
done
MM_ADDR=$(sed -n 's/^addr=//p' results/cit_serve_mm_addr.txt)
test -n "$MM_ADDR" || { echo "multi-model cit-serve did not report an address" >&2; exit 1; }
timeout 300 cargo run --release -q -p cit-bench --bin servebench -- \
  --quick --clients 6 --addr "$MM_ADDR" --model default,alt,auto \
  --out results/bench_serve_mm.json
jq -e '.levels.c6 | (.protocol_errors == 0) and (.connect_errors == 0)' \
  results/bench_serve_mm.json >/dev/null \
  || { echo "multi-model smoke: servebench failed its invariants" >&2;
       cat results/bench_serve_mm.json >&2; exit 1; }
# The per-model breakdown must name both slots, attribute traffic to
# each, and never exceed the server-wide request total.
target/release/cit-top --addr "$MM_ADDR" --once --json > results/cit_top_mm.json
jq -e '(.models | length == 2)
       and ([.models[].model] == ["default", "alt"])
       and ([.models[].requests] | all(. > 0))
       and (([.models[].requests] | add) <= .requests_total)
       and ([.models[].checkpoint] | all(length > 0))' \
  results/cit_top_mm.json >/dev/null \
  || { echo "multi-model smoke: per-model stats failed to reconcile" >&2;
       cat results/cit_top_mm.json >&2; exit 1; }
printf '{"op":"shutdown"}\n' | timeout 10 bash -c "exec 3<>/dev/tcp/${MM_ADDR%:*}/${MM_ADDR##*:}; cat >&3; head -c1 <&3 >/dev/null" || true
wait "$MM_PID" || { echo "multi-model cit-serve exited uncleanly" >&2; exit 1; }
rm -f results/cit_serve_mm_addr.txt results/cit_top_mm.json

echo "== doc-link check (PROTOCOL.md / OPERATIONS.md / ServeConfig knobs vs source)"
# The protocol reference must document every wire op and every error tag
# the source defines, and every serve.* metric name OPERATIONS.md claims
# must exist in the serve crate — docs that drift from the code fail CI.
for op in open decide close info reload stats shutdown sleep; do
  grep -q "\`$op\`" PROTOCOL.md \
    || { echo "PROTOCOL.md does not document op '$op'" >&2; exit 1; }
done
for tag in $(sed -n 's/.*ErrorKind::[A-Za-z]* => "\([a-z_]*\)".*/\1/p' crates/serve/src/protocol.rs | sort -u); do
  grep -q "\`$tag\`" PROTOCOL.md \
    || { echo "PROTOCOL.md does not document error kind '$tag'" >&2; exit 1; }
done
grep -oE '`serve\.[a-z0-9_.<>]+`' OPERATIONS.md | tr -d '`' | sort -u | {
  missing=0
  while read -r metric; do
    # Per-op and per-slot families are format strings in the source
    # (`serve.op.{name}.requests`): turn the documented `<op>`/`<slot>`
    # placeholder into a wildcard before matching.
    pattern=$(printf '%s' "$metric" | sed 's/\./\\./g; s/<[a-z]*>/.*/g')
    if ! grep -rqE -e "$pattern" --include='*.rs' crates/serve/src; then
      # Concrete instances of a dynamic family (serve.errors.overloaded)
      # only exist as format strings + the instance string: require both.
      family=$(printf '%s' "${metric%.*}" | sed 's/\./\\./g')
      leaf=${metric##*.}
      if ! { grep -rqE -e "${family}\.\{" --include='*.rs' crates/serve/src \
             && grep -rq -e "\"$leaf\"" --include='*.rs' crates/serve/src; }; then
        echo "OPERATIONS.md metric '$metric' not found in crates/serve/src" >&2
        missing=$((missing + 1))
      fi
    fi
  done
  test "$missing" -eq 0 || exit 1
}

# Every ServeConfig knob the docs name must still exist: a doc telling
# operators to set a removed field describes a server that is gone. The
# docs name knobs as `ServeConfig::field`, and each one is checked
# against the struct in server.rs.
serve_fields=$(sed -n '/^pub struct ServeConfig {/,/^}/s/^    pub \([a-z0-9_]*\):.*/\1/p' \
  crates/serve/src/server.rs)
test -n "$serve_fields" || { echo "no ServeConfig fields found in server.rs" >&2; exit 1; }
serve_docs="README.md ARCHITECTURE.md OPERATIONS.md PROTOCOL.md"
# shellcheck disable=SC2086
for knob in $(grep -ohE 'ServeConfig::[a-z0-9_]+' $serve_docs | sed 's/^ServeConfig:://' | sort -u); do
  # `ServeConfig::default()` is the constructor, not a field.
  [ "$knob" = default ] && continue
  printf '%s\n' "$serve_fields" | grep -qx "$knob" \
    || { echo "docs name ServeConfig::$knob, which is not a ServeConfig field" >&2; exit 1; }
done

echo "CI gate passed."
