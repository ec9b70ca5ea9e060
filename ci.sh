#!/usr/bin/env bash
# Full offline CI gate: build, test, formatting, lints.
# The workspace has no registry dependencies, so --offline must always work.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== closed-form advance vs stepping (release: float rounding and inlining as shipped)"
cargo test -q --release --offline -p pphw-sim
cargo test -q --release --offline --test sim_jump --test golden_equivalence

echo "== benchmark/ self-checks (every workload at 1/100 scale, exact metrics repeat)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== static-analysis lint gate (all six benchmarks, every stage, zero diagnostics)"
cargo run --release --offline -p pphw-bench --bin verify -- --max-severity none
cargo run --release --offline -p pphw-bench --bin verify -- --flow --json > target/verify-report.json
python3 - <<'EOF'
import json
with open("target/verify-report.json") as f:
    report = json.load(f)
assert report["error_count"] == 0, f"verify gate found diagnostics: {report}"
assert report["warning_count"] == 0, f"verify gate found warnings: {report}"
runs = report["runs"]
benches = {r["bench"] for r in runs}
assert len(benches) == 6, f"expected six benchmarks, saw {sorted(benches)}"
assert all(r["report"]["error_count"] == 0 for r in runs), report
# Flow gate: every compiled design exposes a predicted bottleneck, every
# channel holds the two slots full overlap needs, and capacity inference
# is the identity (the generator already sizes minimally).
flows = [r for r in runs if "flow" in r]
assert flows, "no flow views in the report"
for r in flows:
    f = r["flow"]
    assert f["inferred"] == [], f"{r['bench']} [{r['stage']}]: non-minimal depths: {f}"
    for c in f["channels"]:
        assert c["slots"] >= 2, f"{r['bench']} [{r['stage']}]: undersized channel: {c}"
    if f["channels"]:
        assert f["bottleneck"], f"{r['bench']} [{r['stage']}]: no bottleneck: {f}"
print(f"verify gate OK: {len(runs)} stages across {len(benches)} benchmarks, "
      f"0 diagnostics, {len(flows)} flow-clean designs")
EOF

echo "== flow mutant gate (seeded undersized channels must raise PPHW04x and stall)"
cargo test -q --offline --test verify flow_family_mutants_raise_their_stable_codes
cargo test -q --offline --test flow_crosscheck \
  undersized_channels_are_flagged_statically_and_stall_dynamically

echo "== differential sweep with the per-pass verifier forced on"
PPHW_VERIFY=1 cargo test -q --offline --test differential gemm_differential
PPHW_VERIFY=1 cargo test -q --offline --test verify deep_verifier_runs_after_every_tiling_pass

echo "== dse smoke (tiny space, 2 threads)"
cargo run --release --offline -p pphw-bench --bin dse -- --quick --threads 2

echo "== dse guided smoke (model-guided slice, <= 30% of the space simulated)"
cargo run --release --offline -p pphw-bench --bin dse -- \
  --bench sumrows --threads 2 --strategy guided \
  --sample 8 --top-k 8 --explore 2 --max-simulated-frac 0.3

echo "== dse shard-merge gate (3 shards, merged cache, bit-identical reports)"
rm -f target/ci-shard*.pphwc* target/ci-merged.pphwc* \
      target/ci-dse-merged*.json target/ci-dse-unsharded*.json
for i in 0 1 2; do
  cargo run --release --offline -p pphw-bench --bin dse -- \
    --quick --threads 2 --shard "$i/3" --cache "target/ci-shard$i.pphwc"
done
cargo run --release --offline -p pphw-bench --bin dse -- \
  --cache target/ci-merged.pphwc \
  --merge-cache target/ci-shard0.pphwc target/ci-shard1.pphwc target/ci-shard2.pphwc
cargo run --release --offline -p pphw-bench --bin dse -- \
  --quick --threads 2 --cache target/ci-merged.pphwc \
  --json target/ci-dse-merged.json | tee target/ci-dse-merged.log
grep -q "eval hits / 0 misses" target/ci-dse-merged.log \
  || { echo "shard-merge gate: merged cache had misses — shards did not cover the space"; exit 1; }
cargo run --release --offline -p pphw-bench --bin dse -- \
  --quick --threads 2 --json target/ci-dse-unsharded.json
for f in target/ci-dse-merged*.json; do
  u="${f/ci-dse-merged/ci-dse-unsharded}"
  # Cache hit/miss counters legitimately differ (merged cache vs cold);
  # everything else — winners, rankings, stats — must be bit-identical.
  mask='s/"cache_hits":[0-9]*,"cache_misses":[0-9]*/"cache_hits":0,"cache_misses":0/'
  diff <(sed "$mask" "$f") <(sed "$mask" "$u") \
    || { echo "shard-merge gate: $f differs from unsharded $u"; exit 1; }
done

echo "== perf smoke (two-level cache: second run must be warm and compile-free)"
rm -f target/perf-eval-cache.pphwc BENCH_dse.json
cargo run --release --offline -p pphw-bench --bin perf -- --quick
cargo run --release --offline -p pphw-bench --bin perf -- --quick
python3 - <<'EOF'
import json
with open("BENCH_dse.json") as f:
    report = json.load(f)
assert report["reports_bit_identical"], "cached sweep reports diverged"
warm = {run["name"]: run for run in report["runs"]}["persistent_t1"]
assert warm["eval_hits"] > 0, f"warm run had no cache hits: {warm}"
assert warm["eval_misses"] == 0, f"warm run missed the cache: {warm}"
assert warm["design_builds"] == 0, f"warm run recompiled designs: {warm}"
print(f"perf smoke OK: warm run hit {warm['eval_hits']}/{warm['eval_hits']}, 0 recompiles")
EOF

echo "== fault-injection sweep (self-checking: determinism, inertness, monotonicity)"
cargo run --release --offline -p pphw-bench --bin faults

echo "== robustness fuzz smoke (fresh seed, never-panic property)"
PPHW_PROP_SEED=0xC1C1C1C1 PPHW_PROP_CASES=64 \
  cargo test -q --offline --test robustness fuzzed_pipeline_returns_errors_never_panics

echo "== frontend corpus gate (every examples/*.ppl parses and verifies clean)"
shopt -s nullglob
ppl_files=(examples/*.ppl)
[ "${#ppl_files[@]}" -ge 6 ] || { echo "corpus gate: expected >= 6 .ppl files, found ${#ppl_files[@]}"; exit 1; }
for f in "${ppl_files[@]}"; do
  cargo run --release --offline -p pphw-bench --bin parse -- "$f"
done

echo "== frontend fuzz smoke (parser never panics; quick seeded pass)"
PPHW_PROP_SEED=0xF0F0F0F0 PPHW_PROP_CASES=64 \
  cargo test -q --offline --test frontend_fuzz

echo "== serve smoke (daemon on ephemeral port, mixed batch, clean shutdown)"
rm -f target/serve-addr.txt
cargo build --release --offline -p pphw-server --bin serve
./target/release/serve --addr 127.0.0.1:0 --print-addr > target/serve-addr.txt &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" target/serve-addr.txt 2>/dev/null && break
  sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' target/serve-addr.txt)
[ -n "$SERVE_ADDR" ] || { echo "serve smoke: daemon never reported its address"; kill "$SERVE_PID"; exit 1; }
python3 - "$SERVE_ADDR" <<'EOF'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
rfile = sock.makefile("r", encoding="utf-8")

def call(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    return json.loads(rfile.readline())

# compile
r = call({"id": 1, "method": "compile", "bench": "gemm",
          "sizes": {"m": 16, "n": 16, "p": 16}, "tiles": {"m": 8, "n": 8}, "inner_par": 4})
assert r["ok"] and r["result"]["on_chip_bytes"] > 0, r

# verify with spanned diagnostics (bad source must be a typed EPPL error)
r = call({"id": 2, "method": "verify", "source": "prog nope {"})
assert not r["ok"] and r["error"]["code"] == "EPPL", r
assert r["error"]["diagnostics"][0]["span"]["line"] == 1, r

# simulate
r = call({"id": 3, "method": "simulate", "bench": "sumrows", "sizes": {"m": 16, "n": 16}})
assert r["ok"] and r["result"]["cycles"] > 0, r

# duplicate in-flight pair: pipeline two identical requests in one write,
# then read both — the dedup counter must see the pair.
dup = json.dumps({"id": 4, "method": "simulate", "bench": "outerprod",
                  "sizes": {"m": 8, "n": 8}, "inner_par": 2})
sock.sendall((dup + "\n" + dup + "\n").encode())
a, b = json.loads(rfile.readline()), json.loads(rfile.readline())
assert a == b and a["ok"], (a, b)

# over-budget request degrades to the typed budget error
r = call({"id": 5, "method": "simulate", "bench": "sumrows",
          "sizes": {"m": 16, "n": 16}, "cycle_budget": 1})
assert not r["ok"] and r["error"]["code"] == "EBUDGET", r

stats = call({"id": 6, "method": "stats"})
assert stats["ok"] and stats["result"]["dedup_hits"] >= 1, stats

bye = call({"id": 7, "method": "shutdown"})
assert bye["ok"] and bye["result"]["shutting_down"], bye
print(f"serve smoke OK: {stats['result']}")
EOF
wait "$SERVE_PID" || { echo "serve smoke: daemon exited non-zero"; exit 1; }

echo "== serve load harness (cold/warm phases, warm compile-free, dedup > 0)"
rm -f BENCH_serve.json
cargo run --release --offline -p pphw-bench --bin loadgen -- --quick
python3 - <<'EOF'
import json
with open("BENCH_serve.json") as f:
    report = json.load(f)
phases = {p["phase"]: p for p in report["phases"]}
for p in phases.values():
    assert p["throughput_rps"] > 0, p
    lat = p["latency_us"]
    assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"], lat
assert phases["warm"]["design_builds"] == 0, f"warm phase recompiled: {phases['warm']}"
assert report["dedup_hits"] > 0, f"dedup never fired: {report}"
print(f"loadgen OK: cold {phases['cold']['throughput_rps']} rps -> "
      f"warm {phases['warm']['throughput_rps']} rps, "
      f"{report['dedup_hits']} dedup hits, 0 warm compiles")
EOF

echo "== chaos smoke (seeded fault proxy, typed outcomes, kill -9 recovery gate)"
rm -f target/chaos-cache.pphwc target/chaos-cache.pphwc.jnl \
      target/chaos-addr.txt target/chaos-addr2.txt \
      BENCH_chaos.json BENCH_chaos_recovery.json
./target/release/serve --addr 127.0.0.1:0 --cache target/chaos-cache.pphwc \
  --cache-sync-every 1 --print-addr > target/chaos-addr.txt &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" target/chaos-addr.txt 2>/dev/null && break
  sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' target/chaos-addr.txt)
[ -n "$SERVE_ADDR" ] || { echo "chaos smoke: daemon never reported its address"; kill "$SERVE_PID"; exit 1; }
cargo run --release --offline -p pphw-bench --bin loadgen -- \
  --chaos --quick --chaos-seed 42 --addr "$SERVE_ADDR"
# Hard crash: no shutdown, no snapshot save — the journal is all that survives.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
[ -s target/chaos-cache.pphwc.jnl ] || { echo "chaos smoke: journal empty after kill -9"; exit 1; }
./target/release/serve --addr 127.0.0.1:0 --cache target/chaos-cache.pphwc \
  --print-addr > target/chaos-addr2.txt &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" target/chaos-addr2.txt 2>/dev/null && break
  sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' target/chaos-addr2.txt)
[ -n "$SERVE_ADDR" ] || { echo "chaos smoke: restarted daemon never reported its address"; kill "$SERVE_PID"; exit 1; }
cargo run --release --offline -p pphw-bench --bin loadgen -- \
  --warm-check --quick --addr "$SERVE_ADDR" --shutdown
wait "$SERVE_PID" || { echo "chaos smoke: restarted daemon exited non-zero"; exit 1; }
python3 - <<'EOF'
import json
with open("BENCH_chaos.json") as f:
    chaos = json.load(f)
o = chaos["outcomes"]
assert o["exhausted"] == 0, f"chaos gate: untyped failures: {o}"
assert o["ok"] > 0, o
flt = chaos["faults"]
injected = (flt["disconnects"] + flt["corruptions"] + flt["duplicates"]
            + flt["trickles"] + flt["delays"])
assert injected > 0, f"chaos gate: no faults injected, the run proved nothing: {flt}"
with open("BENCH_chaos_recovery.json") as f:
    rec = json.load(f)
assert rec["eval_misses"] == 0, f"recovery gate: journal lost evaluations: {rec}"
# verify requests compile their design-level analysis target once per
# daemon life (<= 3 distinct benches in the chaos population); simulate
# replays must stay compile-free.
assert rec["design_builds"] <= 3, f"recovery gate: designs recompiled: {rec}"
assert rec["eval_hits"] > 0, rec
print(f"chaos smoke OK: {o['ok']} ok / {o['typed_error']} typed errors / 0 untyped "
      f"through {injected} injected faults; after kill -9: {rec['eval_hits']} hits, "
      f"0 misses, 0 rebuilds")
EOF

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "CI OK"
