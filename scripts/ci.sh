#!/usr/bin/env bash
# CI gate: build, test, lint, and exercise the trace ingestion, replay,
# benchmark, paper-contract and serve paths end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Docs build warning-free, so a doc link to a deleted or private item
# fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo fmt --all -- --check

# Ingest smoke: generate an LU class-B trace, pack it, and check that
# text, a CRLF copy of it without a final newline, and binary ingestion
# replay to the same simulated time, that the copy packs to the same
# checksum, table and payload, and that pack -> unpack round-trips the
# text.
ingest_dir="$(mktemp -d)"
trap 'rm -rf "$ingest_dir"' EXIT
gen=target/release/titrace-gen
rep=target/release/titreplay
"$gen" --class B --procs 8 --steps 10 --out "$ingest_dir/lu.trace"
"$rep" trace pack "$ingest_dir/lu.trace" "$ingest_dir/lu.titb" --ranks 8
"$rep" trace unpack "$ingest_dir/lu.titb" "$ingest_dir/lu.unpacked.trace"
cmp "$ingest_dir/lu.trace" "$ingest_dir/lu.unpacked.trace"
plat="$ingest_dir/lu.trace.platform.json"
run_replay() { "$rep" --platform "$plat" --ranks 8 --rate 2e9 "$@" | awk '{print $2}'; }
t_text=$(run_replay --trace "$ingest_dir/lu.trace" --no-cache)
sed 's/$/\r/' "$ingest_dir/lu.trace" | head -c -1 >"$ingest_dir/lu.crlf.trace"
t_crlf=$(run_replay --trace "$ingest_dir/lu.crlf.trace" --no-cache)
"$rep" trace pack "$ingest_dir/lu.crlf.trace" "$ingest_dir/lu.crlf.titb" --ranks 8
# Bytes 12..28 of a .titb record the source file's (length, mtime).
cmp -i 28 "$ingest_dir/lu.titb" "$ingest_dir/lu.crlf.titb"
t_bin=$(run_replay --trace "$ingest_dir/lu.titb")
# First cached run stores the side-car, second must hit it.
t_store=$(run_replay --trace "$ingest_dir/lu.trace")
[ -f "$ingest_dir/lu.trace.titb" ] || { echo "side-car cache not written" >&2; exit 1; }
t_cache=$("$rep" --platform "$plat" --ranks 8 --rate 2e9 --trace "$ingest_dir/lu.trace" \
    2>"$ingest_dir/cache.log" | awk '{print $2}')
grep -q "trace cache: hit" "$ingest_dir/cache.log" \
    || { echo "side-car cache not hit on second run" >&2; exit 1; }
for t in "$t_crlf" "$t_bin" "$t_store" "$t_cache"; do
    [ "$t" = "$t_text" ] || {
        echo "ingestion paths disagree: $t_text vs $t" >&2
        exit 1
    }
done
# Every generator's text round-trips through pack -> unpack.
"$gen" --workload halo --procs 16 --steps 20 --bytes 4096 --out "$ingest_dir/rt-halo.trace" 2>/dev/null
"$gen" --workload allreduce --procs 8 --steps 5 --bytes 4096 --out "$ingest_dir/rt-ar.trace" 2>/dev/null
for w in halo:16 ar:8; do
    f="$ingest_dir/rt-${w%%:*}"
    "$rep" trace pack "$f.trace" "$f.titb" --ranks "${w##*:}" 2>/dev/null
    "$rep" trace unpack "$f.titb" "$f.unpacked.trace" 2>/dev/null
    cmp "$f.trace" "$f.unpacked.trace"
done
# Bad arguments fail closed: unparsable or unusable values are usage
# errors (2), a platform spec that cannot be written and an `inspect
# --threads` or `--rate` without `--profile` are errors (1).
expect_exit() {
    want=$1
    shift
    set +e
    "$@" >/dev/null 2>&1
    got=$?
    set -e
    [ "$got" = "$want" ] || { echo "exit $got (want $want): $*" >&2; exit 1; }
}
expect_exit 2 "$gen" --class S --procs 2 --steps abc --out "$ingest_dir/bad.trace"
expect_exit 2 "$gen" --class S --procs 2 --seed xyz --out "$ingest_dir/bad.trace"
mkdir "$ingest_dir/bad.trace.platform.json"
expect_exit 1 "$gen" --class S --procs 2 --steps 2 --out "$ingest_dir/bad.trace"
expect_exit 1 "$rep" inspect --trace "$ingest_dir/bad.trace" --ranks 2 --threads abc
expect_exit 1 "$rep" inspect --trace "$ingest_dir/bad.trace" --ranks 2 --threads 2
expect_exit 1 "$rep" inspect --trace "$ingest_dir/bad.trace" --ranks 2 --rate 3e9
for bad in "--threads abc" "--rate nan" "--rate inf" "--rate 0" "--rate -1"; do
    # shellcheck disable=SC2086 # each case is a flag and its value
    expect_exit 2 "$rep" --platform "$plat" --trace "$ingest_dir/lu.titb" --ranks 8 --rate 2e9 $bad
done
# A sequential replay decodes text on a helper thread and a `.titb`
# inline: halo P=128 gives the same --metrics both ways.
"$gen" --workload halo --procs 128 --steps 20 --out "$ingest_dir/halo128.trace" >/dev/null 2>&1
"$rep" trace pack "$ingest_dir/halo128.trace" "$ingest_dir/halo128.titb" --ranks 128 2>/dev/null
for form in trace titb; do
    "$rep" --platform "$ingest_dir/halo128.trace.platform.json" --ranks 128 --rate 2e9 \
        --trace "$ingest_dir/halo128.$form" --no-cache --threads 1 \
        --metrics "$ingest_dir/halo128.$form.metrics.json" >/dev/null 2>&1
done
cmp "$ingest_dir/halo128.trace.metrics.json" "$ingest_dir/halo128.titb.metrics.json" \
    || { echo "halo P=128: text and .titb --metrics differ at --threads 1" >&2; exit 1; }
# The writers encode ranks on every core and write them in rank order:
# LU C-64, ranks far longer than a worker may run ahead, round-trips.
"$gen" --class C --procs 64 --steps 2 --seed 1 --out "$ingest_dir/c64.trace" 2>/dev/null
"$rep" trace pack "$ingest_dir/c64.trace" "$ingest_dir/c64.titb" --ranks 64 2>/dev/null
"$rep" trace unpack "$ingest_dir/c64.titb" "$ingest_dir/c64.unpacked.trace" 2>/dev/null
cmp "$ingest_dir/c64.trace" "$ingest_dir/c64.unpacked.trace"
echo "INGEST_SMOKE ok (simulated_time_s $t_text across text/crlf/titb/cache; halo P=128 text and .titb --metrics equal; LU C-64 pack/unpack round-trips)"

# Observability smoke: replay an LU class-S trace with the recorder
# enabled, check that the exported artifacts are valid JSON, and that
# the critical path ends exactly at the reported simulated time.
"$gen" --class S --procs 8 --steps 10 --out "$ingest_dir/lu-s.trace"
splat="$ingest_dir/lu-s.trace.platform.json"
"$rep" --platform "$splat" --ranks 8 --rate 2e9 --trace "$ingest_dir/lu-s.trace" \
    --no-cache \
    --trace-out "$ingest_dir/chrome.json" \
    --state-csv "$ingest_dir/states.csv" \
    --metrics "$ingest_dir/metrics.json" \
    --manifest "$ingest_dir/manifest.json" \
    --critical-path "$ingest_dir/critical_path.json" \
    >"$ingest_dir/obs.out" 2>/dev/null
t_sim=$(awk '$1 == "simulated_time_s" {print $2}' "$ingest_dir/obs.out")
t_cp=$(awk '$1 == "critical_path_end_s" {print $2}' "$ingest_dir/obs.out")
[ -n "$t_sim" ] && [ "$t_sim" = "$t_cp" ] || {
    echo "critical path end ($t_cp) != simulated time ($t_sim)" >&2
    exit 1
}
# The same run under the legacy MSG model: one runtime, so the critical
# path closes at the simulated time there too, and (python3 block
# below) the metrics carry the same schema — key set — as the smpi run's.
"$rep" --platform "$splat" --ranks 8 --rate 2e9 --engine msg \
    --trace "$ingest_dir/lu-s.trace" --no-cache \
    --metrics "$ingest_dir/metrics.msg.json" \
    --critical-path >"$ingest_dir/obs.msg.out" 2>/dev/null
t_msg_sim=$(awk '$1 == "simulated_time_s" {print $2}' "$ingest_dir/obs.msg.out")
t_msg_cp=$(awk '$1 == "critical_path_end_s" {print $2}' "$ingest_dir/obs.msg.out")
[ -n "$t_msg_sim" ] && [ "$t_msg_cp" = "$t_msg_sim" ] \
    || { echo "msg critical path end ($t_msg_cp) != simulated time ($t_msg_sim)" >&2; exit 1; }
head -1 "$ingest_dir/states.csv" | grep -q '^rank,start_s,end_s,state,peer,bytes$' \
    || { echo "state CSV header malformed" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 - "$ingest_dir" <<'EOF'
import json, os, sys
d = sys.argv[1]
trace = json.load(open(os.path.join(d, "chrome.json")))
assert trace["traceEvents"], "chrome trace has no events"
metrics = json.load(open(os.path.join(d, "metrics.json")))
assert metrics["engine"] == "smpi", metrics["engine"]
assert metrics["replay"]["messages"] > 0, "no messages counted"
manifest = json.load(open(os.path.join(d, "manifest.json")))
assert manifest["trace_signature"].startswith("text:"), manifest["trace_signature"]
assert manifest["metrics"]["simulated_time_s"] == metrics["simulated_time_s"]
cp = json.load(open(os.path.join(d, "critical_path.json")))
assert cp["steps"] and cp["breakdown"], "critical path empty"
def keys(v, prefix=""):
    if not isinstance(v, dict):
        return set()
    return set().union(*[{prefix + k} | keys(x, prefix + k + ".") for k, x in v.items()])
msg = json.load(open(os.path.join(d, "metrics.msg.json")))
assert msg["engine"] == "msg", msg["engine"]
assert keys(msg) == keys(metrics), keys(msg) ^ keys(metrics)
EOF
else
    echo "python3 unavailable; skipped JSON validation" >&2
fi
"$rep" inspect --trace "$ingest_dir/lu-s.trace" --ranks 8 >"$ingest_dir/inspect.out"
grep -q '^validation_issues 0$' "$ingest_dir/inspect.out" \
    || { echo "inspect reported validation issues" >&2; exit 1; }
# The sharing policy is not a knob any more: asking for max-min is a
# usage error (exit 2), not a silently different network model.
retired_rc=0
"$rep" --platform "$splat" --ranks 8 --rate 2e9 --trace "$ingest_dir/lu-s.trace" \
    --no-cache --sharing maxmin >/dev/null 2>"$ingest_dir/retired.err" || retired_rc=$?
[ "$retired_rc" = 2 ] && grep -q '^usage: titreplay' "$ingest_dir/retired.err" \
    || { echo "titreplay --sharing maxmin: exit $retired_rc, wanted 2 with usage" >&2; exit 1; }
# Same smoke with parallel replay as the ambient default (LU couples
# all ranks, so this exercises the single-island fallback): the
# critical path must still close at the simulated time, and the
# exported artifacts must be byte-identical to the sequential run.
TITR_REPLAY_THREADS=4 "$rep" --platform "$splat" --ranks 8 --rate 2e9 \
    --trace "$ingest_dir/lu-s.trace" --no-cache \
    --trace-out "$ingest_dir/chrome.par.json" \
    --state-csv "$ingest_dir/states.par.csv" \
    --critical-path >"$ingest_dir/obs.par.out" 2>/dev/null
t_par_sim=$(awk '$1 == "simulated_time_s" {print $2}' "$ingest_dir/obs.par.out")
t_par_cp=$(awk '$1 == "critical_path_end_s" {print $2}' "$ingest_dir/obs.par.out")
[ "$t_par_sim" = "$t_sim" ] && [ "$t_par_cp" = "$t_par_sim" ] \
    || { echo "obs smoke diverged under TITR_REPLAY_THREADS=4 ($t_par_sim/$t_par_cp vs $t_sim)" >&2; exit 1; }
cmp "$ingest_dir/chrome.json" "$ingest_dir/chrome.par.json" \
    && cmp "$ingest_dir/states.csv" "$ingest_dir/states.par.csv" \
    || { echo "obs exports differ under TITR_REPLAY_THREADS=4" >&2; exit 1; }
echo "OBS_SMOKE ok (critical_path_end_s == simulated_time_s == $t_sim, also at TITR_REPLAY_THREADS=4 and $t_msg_sim under --engine msg; --sharing refused)"

# Parallel replay smoke: a multi-island halo workload must replay
# bit-identically at --threads 1 and --threads 4 — same simulated time,
# byte-identical chrome trace / state CSV / metrics exports — and the
# critical path must still close exactly at the simulated time when
# computed from the merged parallel run.
"$gen" --workload halo --procs 32 --steps 20 --bytes 4096 --out "$ingest_dir/halo.trace"
hplat="$ingest_dir/halo.trace.platform.json"
"$rep" inspect --trace "$ingest_dir/halo.trace" --ranks 32 --platform "$hplat" \
    >"$ingest_dir/halo.inspect.out"
grep -q '^validation_issues 0$' "$ingest_dir/halo.inspect.out" \
    || { echo "halo inspect reported validation issues" >&2; exit 1; }
islands=$(awk '$1 == "islands" {print $2}' "$ingest_dir/halo.inspect.out")
[ "${islands:-0}" -gt 1 ] \
    || { echo "halo workload should decompose into >1 island (got ${islands:-none})" >&2; exit 1; }
halo_replay() {
    n=$1; shift
    "$rep" --platform "$hplat" --ranks 32 --rate 2e9 --no-cache \
        --trace "$ingest_dir/halo.trace" --threads "$n" \
        --trace-out "$ingest_dir/halo.chrome.$n.json" \
        --state-csv "$ingest_dir/halo.states.$n.csv" \
        --metrics "$ingest_dir/halo.metrics.$n.json" "$@"
}
h_seq=$(halo_replay 1 2>/dev/null | awk '$1 == "simulated_time_s" {print $2}')
halo_replay 4 --critical-path >"$ingest_dir/halo.par.out" 2>/dev/null
h_par=$(awk '$1 == "simulated_time_s" {print $2}' "$ingest_dir/halo.par.out")
h_cp=$(awk '$1 == "critical_path_end_s" {print $2}' "$ingest_dir/halo.par.out")
[ -n "$h_seq" ] && [ "$h_seq" = "$h_par" ] \
    || { echo "parallel replay time ($h_par) != sequential ($h_seq)" >&2; exit 1; }
[ "$h_cp" = "$h_par" ] \
    || { echo "parallel critical path end ($h_cp) != simulated time ($h_par)" >&2; exit 1; }
for kind in chrome.json states.csv; do
    name="halo.${kind%.*}"; ext="${kind##*.}"
    cmp "$ingest_dir/$name.1.$ext" "$ingest_dir/$name.4.$ext" \
        || { echo "parallel $kind export differs from sequential" >&2; exit 1; }
done
# Metrics compare with the live-flow high-water mark (and the
# live_entity_hwm key that repeats it) normalized away: it is a
# per-network-model occupancy figure (sequential sees every island's
# flows in one model, parallel folds per-island maxima; same exemption
# as the differential tests); every semantic counter must still match.
norm_metrics() {
    sed -E 's/"(live_flow_hwm|live_entity_hwm)": [0-9]+/"\1": 0/g' "$1"
}
cmp <(norm_metrics "$ingest_dir/halo.metrics.1.json") \
    <(norm_metrics "$ingest_dir/halo.metrics.4.json") \
    || { echo "parallel metrics export differs from sequential" >&2; exit 1; }
echo "PARALLEL_SMOKE ok ($islands islands, simulated_time_s $h_seq identical at 1 and 4 threads)"

# Collective-batching smoke: a generated allreduce P=128 trace replayed
# with default flags must batch every collective phase whole (every
# re-solve a flush, every flow examined once, a bounded number of kernel
# events per message) and land on the simulated time the per-flow path
# computed before batching became unconditional.
"$gen" --workload allreduce --procs 128 --steps 3 --out "$ingest_dir/ar.trace" >/dev/null
"$rep" --platform "$ingest_dir/ar.trace.platform.json" --trace "$ingest_dir/ar.trace" \
    --ranks 128 --rate 2e9 --no-cache --metrics "$ingest_dir/ar.metrics.json" >/dev/null
ar_field() { grep -oE "\"$1\": [0-9.e-]+" "$ingest_dir/ar.metrics.json" | awk '{printf "%s", $2}'; }
a_time=$(ar_field simulated_time_s)
a_resolves=$(ar_field sharing_resolves)
a_flushes=$(ar_field sharing_flushes)
a_examined=$(ar_field sharing_examined)
a_flows=$(ar_field flows_created)
a_events=$(ar_field events_processed)
a_msgs=$(ar_field messages)
[ "$a_time" = "0.04674904320000039" ] \
    || { echo "allreduce P=128 simulated time moved: $a_time" >&2; exit 1; }
[ "$a_resolves" = "$a_flushes" ] \
    || { echo "allreduce P=128: $a_resolves re-solves for $a_flushes flushes" >&2; exit 1; }
[ "$a_examined" = "$a_flows" ] \
    || { echo "allreduce P=128: $a_examined flows examined for $a_flows created" >&2; exit 1; }
[ "$a_msgs" -gt 0 ] && [ "$a_events" -lt $((3 * a_msgs)) ] \
    || { echo "allreduce P=128: $a_events events for $a_msgs messages" >&2; exit 1; }
echo "AGG_SMOKE ok (simulated_time_s $a_time, $a_resolves re-solves = flushes, $a_examined examined = flows, $a_events events / $a_msgs messages)"

# Point-to-point smoke: a compute burst is one rank timer, a message one
# flow completion plus one arrival timer, and an eager message whose
# receive comes after its arrival instant never queues that timer, so
# the LU B-8 replay above processes fewer events than one per compute
# plus two per message.
"$rep" --platform "$plat" --trace "$ingest_dir/lu.trace" --ranks 8 --rate 2e9 --no-cache \
    --metrics "$ingest_dir/lu.metrics.json" >/dev/null
lu_field() { grep -oE "\"$1\": [0-9]+" "$ingest_dir/lu.metrics.json" | awk '{printf "%s", $2}'; }
p_events=$(lu_field events_processed)
p_msgs=$(lu_field messages)
p_computes=$("$rep" inspect --trace "$ingest_dir/lu.trace" --ranks 8 | awk '$1 == "computes" {print $2}')
[ -n "$p_computes" ] && [ "$p_msgs" -gt 0 ] && [ "$p_events" -lt $((p_computes + 2 * p_msgs)) ] \
    || { echo "LU B-8: $p_events events for $p_computes computes and $p_msgs messages" >&2; exit 1; }
echo "P2P_SMOKE ok ($p_events events < $p_computes computes + 2 x $p_msgs messages)"

# Profile smoke: the release build inlines the kernel, the event list and
# the network model into the replay loop across crates, so a profile by
# symbol charges them to smpi. scripts/pcprofile.sh charges each sample
# to its innermost workspace frame instead: on an LU C-64 replay (at
# least 300 samples) the frames of simkernel/, smpi/ and netmodel/ must
# each hold at least 5 % of all samples among the top 25 lines.
"$gen" --class C --procs 64 --steps 12 --out "$ingest_dir/luc.trace" >/dev/null
"$rep" trace pack "$ingest_dir/luc.trace" "$ingest_dir/luc.titb" --ranks 64 >/dev/null
scripts/pcprofile.sh -r 8 -- "$rep" --platform "$ingest_dir/luc.trace.platform.json" \
    --trace "$ingest_dir/luc.titb" --ranks 64 --rate 2e9 >"$ingest_dir/profile.txt"
prof=$(awk 'BEGIN { s["simkernel"] = 0; s["smpi"] = 0; s["netmodel"] = 0 }
    NR == 1 { n = $1; next }
    { for (d in s) if (index($0, "(" d "/")) s[d] += $1 }
    END { ok = n >= 300; for (d in s) { ok = ok && s[d] >= 5; out = out " " d " " s[d] "%" }
          print (ok ? "ok" : "bad") " (" n " samples;" out ")" }' "$ingest_dir/profile.txt")
[ "${prof%% *}" = ok ] \
    || { echo "PROFILE_SMOKE: $prof" >&2; cat "$ingest_dir/profile.txt" >&2; exit 1; }
echo "PROFILE_SMOKE $prof"

# Scale smoke: a replay's state is linear in ranks and in the pairs
# that talk. Both runtimes build a rank pair's route and match queues on
# the pair's first message and index a destination's sources in a short
# list (a dense row only past max(16, P/16) sources), the file windows
# share one 64 MiB budget, and a rank runs a collective from an O(1)
# schedule, never its expanded op list. So a 2048- and a 65536-rank halo
# exchange replay in under 1 GiB of address space (a dense row per
# destination alone needs 16 GiB at P = 65536), sequentially and on the
# island path, to the same simulated time, and a 1024-rank ring
# allreduce in under 64 MiB (expanded sub-programs need over 192 MiB).
"$gen" --workload halo --procs 2048 --steps 20 --out "$ingest_dir/halo2k.trace" >/dev/null
"$rep" trace pack "$ingest_dir/halo2k.trace" "$ingest_dir/halo2k.titb" --ranks 2048 >/dev/null
"$gen" --workload halo --procs 65536 --steps 1 --binary --out "$ingest_dir/halo64k.titb" >/dev/null
# scale_replay NAME PLATFORM RANKS THREADS replays $ingest_dir/NAME.titb.
scale_replay() {
    (
        ulimit -v 1048576
        "$rep" --platform "$ingest_dir/$2" --trace "$ingest_dir/$1.titb" --ranks "$3" \
            --rate 2e9 --threads "$4" 2>"$ingest_dir/scale.$1.$4.err"
    ) | awk '$1 == "simulated_time_s" {print $2}'
}
for run in halo2k:halo2k.trace.platform.json:2048 halo64k:halo64k.titb.platform.json:65536; do
    IFS=: read -r name spec ranks <<<"$run"
    s_seq=$(scale_replay "$name" "$spec" "$ranks" 1 || true)
    s_par=$(scale_replay "$name" "$spec" "$ranks" 2 || true)
    [ -n "$s_seq" ] && [ "$s_seq" = "$s_par" ] || {
        echo "halo P=$ranks under 1 GiB: '$s_seq' at --threads 1, '$s_par' at --threads 2" >&2
        tail -n 3 "$ingest_dir"/scale.*.err >&2
        exit 1
    }
    echo "SCALE_SMOKE ok (halo P=$ranks under ulimit -v 1 GiB, simulated_time_s $s_seq at --threads 1 and 2)"
done
"$gen" --workload allreduce --procs 1024 --steps 1 --bytes 70000 \
    --out "$ingest_dir/ar1k.trace" >/dev/null
s_ar=$(
    (
        ulimit -v 65536
        "$rep" --platform "$ingest_dir/ar1k.trace.platform.json" --trace "$ingest_dir/ar1k.trace" \
            --ranks 1024 --rate 2e9 --no-cache 2>"$ingest_dir/scale.ar1k.err"
    ) | awk '$1 == "simulated_time_s" {print $2}'
) || true
[ -n "$s_ar" ] || {
    echo "ring allreduce P=1024 under 64 MiB failed" >&2
    tail -n 3 "$ingest_dir/scale.ar1k.err" >&2
    exit 1
}
echo "SCALE_SMOKE ok (ring allreduce P=1024 under ulimit -v 64 MiB, simulated_time_s $s_ar)"

# One build: the workspace build above and the package build the
# benchmark makes write the same target/release/titreplay, so they must
# be the same program — byte-identical --metrics on the same input.
cargo build --release -p tit-replay -p titserved
"$rep" --platform "$ingest_dir/ar.trace.platform.json" --trace "$ingest_dir/ar.trace" \
    --ranks 128 --rate 2e9 --no-cache --metrics "$ingest_dir/ar.metrics.pkg.json" >/dev/null
cmp "$ingest_dir/ar.metrics.json" "$ingest_dir/ar.metrics.pkg.json" \
    || { echo "ONE_BUILD: workspace and package builds of titreplay report different metrics" >&2; exit 1; }
echo "ONE_BUILD ok (workspace and -p tit-replay -p titserved builds give byte-identical --metrics)"

# Benchmark smoke, harness form: the benchmark's own output checks
# (goldens, mirror = CLI) must pass on the workloads the two sharing
# paths carry — batched collectives and eager point-to-point re-shares —
# on the one that decodes the most text, and on the msg engine's.
for w in allreduce-p128 lu-c64.titb halo-p128.text lu-b64.msg; do
    cargo run --release -p bench --bin titbench -- \
        --workload "$w" --seed 1 --seconds 2 --trace 0 >"$ingest_dir/titbench.out"
    tail -n 1 "$ingest_dir/titbench.out" | grep -q '"correct": true' \
        && tail -n 1 "$ingest_dir/titbench.out" | grep -q '"failed": 0' \
        || { echo "titbench $w: $(tail -n 1 "$ingest_dir/titbench.out")" >&2; exit 1; }
done
echo "BENCH_SMOKE ok (titbench allreduce-p128, lu-c64.titb, halo-p128.text and lu-b64.msg correct, 0 failed)"

# Paper contract: the accuracy results are a correctness contract too.
# Regenerate every table and figure of the paper at the recorded length
# and the future-work evaluation at the recorded length and fail on any
# byte that differs from results/ (~4 min on 2 vCPUs). Each binary's
# wall seconds and the total are printed, so the contract's cost is on
# record.
contract_start=$EPOCHREALTIME
for exp in fig1 fig2 fig3 fig4 fig5 fig6 fig7 table1 table2 ablation futurework; do
    exp_start=$EPOCHREALTIME
    "target/release/$exp" --steps 50 >"$ingest_dir/$exp.txt" 2>/dev/null
    cmp "$ingest_dir/$exp.txt" "results/$exp.txt" \
        || { echo "PAPER_CONTRACT: $exp differs from results/$exp.txt" >&2; exit 1; }
    awk -v e="$exp" -v a="$exp_start" -v b="$EPOCHREALTIME" \
        'BEGIN { printf "PAPER_CONTRACT %-10s %7.1f s\n", e, b - a }'
done
awk -v a="$contract_start" -v b="$EPOCHREALTIME" \
    'BEGIN { printf "PAPER_CONTRACT total      %7.1f s\n", b - a }'
echo "PAPER_CONTRACT ok (fig1..7, table1..2, ablation, futurework byte-identical to results/ at --steps 50)"

# Coupled smoke, two halves: a trace that forms one coupled component
# replays sequentially at any --threads, so every export at --threads 4
# must be byte-identical to --threads 1, metrics included. (a) LU class
# B, 8 ranks: collectives couple every rank.
coupled_replay() {
    n=$1; shift
    "$rep" --platform "$plat" --ranks 8 --rate 2e9 --no-cache \
        --trace "$ingest_dir/lu.trace" --threads "$n" \
        --trace-out "$ingest_dir/coupled.chrome.$n.json" \
        --state-csv "$ingest_dir/coupled.states.$n.csv" \
        --metrics "$ingest_dir/coupled.metrics.$n.json" "$@" 2>/dev/null \
        | awk '$1 == "simulated_time_s" {print $2}'
}
c_seq=$(coupled_replay 1)
c_par=$(coupled_replay 4)
[ -n "$c_seq" ] && [ "$c_seq" = "$c_par" ] \
    || { echo "LU replay time at --threads 4 ($c_par) != sequential ($c_seq)" >&2; exit 1; }
for f in coupled.chrome.1.json coupled.states.1.csv coupled.metrics.1.json; do
    cmp "$ingest_dir/$f" "$ingest_dir/${f/.1./.4.}" \
        || { echo "LU export $f differs at --threads 4" >&2; exit 1; }
done
# (b) A collective-free ring on a non-blocking crossbar: one coupled
# island, which `inspect` must report as such, and the replay is the
# sequential one at any `--threads`.
cat >"$ingest_dir/xbar.json" <<'EOF'
{ "name": "xbar", "kind": { "Direct": {
    "nodes": 8, "host_speed": 1e9, "cores": 1, "cache_bytes": 1048576,
    "link_bandwidth": 1.25e8, "link_latency": 1e-5 } } }
EOF
ring_trace="$ingest_dir/ring.trace"
: >"$ring_trace"
for r in $(seq 0 7); do
    prev=$(( (r + 7) % 8 )); next=$(( (r + 1) % 8 ))
    {
        echo "$r init"
        for i in $(seq 0 29); do
            echo "$r irecv $prev 1024"
            echo "$r isend $next 1024"
            echo "$r waitall"
            echo "$r compute $((100000 + r * 1700 + i * 310))"
        done
        echo "$r finalize"
    } >>"$ring_trace"
done
"$rep" inspect --trace "$ring_trace" --ranks 8 --platform "$ingest_dir/xbar.json" \
    >"$ingest_dir/ring.inspect.out"
grep -q '^islands 1$' "$ingest_dir/ring.inspect.out" \
    && grep -q '^island 0 ranks 8 actions 976$' "$ingest_dir/ring.inspect.out" \
    && grep -q '^validation_issues 0$' "$ingest_dir/ring.inspect.out" \
    || { echo "inspect misreported the ring's islands or validation" >&2; exit 1; }
ring_replay() {
    n=$1; shift
    "$rep" --platform "$ingest_dir/xbar.json" --ranks 8 --rate 1e9 --no-cache \
        --trace "$ring_trace" --threads "$n" \
        --trace-out "$ingest_dir/ring.chrome.$n.json" \
        --state-csv "$ingest_dir/ring.states.$n.csv" \
        --metrics "$ingest_dir/ring.metrics.$n.json" "$@"
}
r_seq=$(ring_replay 1 2>/dev/null | awk '$1 == "simulated_time_s" {print $2}')
ring_replay 4 --critical-path >"$ingest_dir/ring.par.out" 2>/dev/null
r_par=$(awk '$1 == "simulated_time_s" {print $2}' "$ingest_dir/ring.par.out")
r_cp=$(awk '$1 == "critical_path_end_s" {print $2}' "$ingest_dir/ring.par.out")
[ -n "$r_seq" ] && [ "$r_seq" = "$r_par" ] \
    || { echo "ring replay time at --threads 4 ($r_par) != sequential ($r_seq)" >&2; exit 1; }
[ "$r_cp" = "$r_par" ] \
    || { echo "ring critical path end ($r_cp) != simulated time ($r_par)" >&2; exit 1; }
for f in ring.chrome.1.json ring.states.1.csv ring.metrics.1.json; do
    cmp "$ingest_dir/$f" "$ingest_dir/${f/.1./.4.}" \
        || { echo "ring export $f differs at --threads 4" >&2; exit 1; }
done
echo "COUPLED_SMOKE ok (LU and one-island ring byte-identical at --threads 1 and 4, simulated_time_s $r_seq)"

# Telemetry smoke: a profiled inspect of the multi-island halo trace
# must print the per-worker wall-clock breakdown of the island engine,
# report the same simulated time as the unprofiled replay above, and
# write the JSON twin.
"$rep" inspect --trace "$ingest_dir/halo.trace" --ranks 32 --platform "$hplat" \
    --threads 4 --rate 2e9 --profile --profile-json "$ingest_dir/halo.profile.json" \
    >"$ingest_dir/halo.profile.out"
grep -q '^replay profile: mode=islands' "$ingest_dir/halo.profile.out" \
    || { echo "profiled inspect did not run the island engine" >&2; exit 1; }
prof_workers=$(grep -cE '^ +[0-9]+ +[0-9]+ +[0-9]+ ' "$ingest_dir/halo.profile.out" || true)
[ "${prof_workers:-0}" -ge 2 ] \
    || { echo "profile table has ${prof_workers:-0} worker rows, expected >= 2" >&2; exit 1; }
prof_sim=$(awk '$1 == "profile_simulated_time_s" {printf "%s", $2}' "$ingest_dir/halo.profile.out")
[ "$prof_sim" = "$h_seq" ] \
    || { echo "profiled replay simulated time ($prof_sim) != unprofiled ($h_seq)" >&2; exit 1; }
grep -q '"mode": "islands"' "$ingest_dir/halo.profile.json" \
    || { echo "profile JSON missing islands mode" >&2; exit 1; }
echo "TELEMETRY_SMOKE ok ($prof_workers profiled workers, simulated time unchanged)"

# Hostile smoke: traces the runtimes cannot execute — a wait with nothing
# outstanding, a collective root outside the trace, a send to oneself, a
# send nobody receives, a receive sized unlike its send, ranks entering
# different collectives, two rendezvous sends waiting on each other,
# ranks entering different numbers of collectives — must exit non-zero
# naming the rank, never panic, on both engines, on the sequential and
# the island path.
"$gen" --class S --procs 2 --steps 2 --out "$ingest_dir/s2.trace"
printf 'p0 init\np0 wait\np1 init\n' >"$ingest_dir/hostile-wait.trace"
printf 'p0 bcast 8 p7\np1 bcast 8 p7\n' >"$ingest_dir/hostile-root.trace"
printf 'p0 send p0 8\np1 init\n' >"$ingest_dir/hostile-self.trace"
printf 'p0 send p1 8\np1 init\n' >"$ingest_dir/hostile-unmatched.trace"
printf 'p0 send p1 8\np1 recv p0 16\n' >"$ingest_dir/hostile-size.trace"
printf 'p0 allreduce 8\np1 bcast 8 p0\n' >"$ingest_dir/hostile-coll.trace"
printf 'p0 send p1 1048576\np0 recv p1 1048576\np1 send p0 1048576\np1 recv p0 1048576\n' \
    >"$ingest_dir/hostile-cycle.trace"
printf 'p0 init\np0 allreduce 8\np0 allreduce 8\np1 init\np1 allreduce 8\n' \
    >"$ingest_dir/hostile-count.trace"
hostile_runs=0
for kind in wait root self unmatched size coll cycle count; do
    for engine in smpi msg; do
        for threads in 1 2; do
            what="hostile $kind trace at --engine $engine --threads $threads"
            if "$rep" --platform "$ingest_dir/s2.trace.platform.json" --ranks 2 --rate 2e9 \
                --trace "$ingest_dir/hostile-$kind.trace" --no-cache \
                --engine "$engine" --threads "$threads" >/dev/null 2>"$ingest_dir/hostile.err"; then
                echo "$what replayed successfully" >&2
                exit 1
            fi
            if grep -q panicked "$ingest_dir/hostile.err" \
                || ! grep -qE 'rank p?[0-9]' "$ingest_dir/hostile.err"; then
                echo "$what: wanted an error naming the rank, got:" >&2
                cat "$ingest_dir/hostile.err" >&2
                exit 1
            fi
            hostile_runs=$((hostile_runs + 1))
        done
    done
done
# Corrupted `.titb` files: cut short, a payload byte changed, a rank
# count no file could hold, and rank 1's block moved in the table. Each
# must be refused naming the file and the fault, before any replay.
"$rep" trace pack "$ingest_dir/s2.trace" "$ingest_dir/s2.titb" --ranks 2 2>/dev/null
poke() { # file offset byte-value: overwrite one byte in place
    printf "\\$(printf %03o "$3")" | dd of="$1" bs=1 seek="$2" conv=notrunc status=none
}
titb_size=$(wc -c <"$ingest_dir/s2.titb")
head -c $((titb_size - 5)) "$ingest_dir/s2.titb" >"$ingest_dir/bad-cut.titb"
cp "$ingest_dir/s2.titb" "$ingest_dir/bad-flip.titb"
last=$(tail -c 1 "$ingest_dir/s2.titb" | od -An -tu1 | tr -d ' ')
poke "$ingest_dir/bad-flip.titb" $((titb_size - 1)) $(((last + 1) % 256))
cp "$ingest_dir/s2.titb" "$ingest_dir/bad-ranks.titb"
for i in 8 9 10 11; do poke "$ingest_dir/bad-ranks.titb" "$i" 255; done
cp "$ingest_dir/s2.titb" "$ingest_dir/bad-table.titb"
poke "$ingest_dir/bad-table.titb" 60 1 # rank 1's payload_offset, low byte
for kind in cut flip ranks table; do
    case $kind in
        cut) want='bad block table: blocks cover [0-9]+ bytes but the payload holds [0-9]+' ;;
        flip) want='payload checksum mismatch \(' ;;
        ranks) want='truncated \.titb data' ;;
        table) want='bad block table: rank 1 block starts at [0-9]+ instead of [0-9]+' ;;
    esac
    for engine in smpi msg; do
        for threads in 1 2; do
            what="corrupt .titb ($kind) at --engine $engine --threads $threads"
            if "$rep" --platform "$ingest_dir/s2.trace.platform.json" --ranks 2 --rate 2e9 \
                --trace "$ingest_dir/bad-$kind.titb" \
                --engine "$engine" --threads "$threads" >/dev/null 2>"$ingest_dir/hostile.err"; then
                echo "$what replayed successfully" >&2
                exit 1
            fi
            if grep -q panicked "$ingest_dir/hostile.err" \
                || ! grep -qF "$ingest_dir/bad-$kind.titb: " "$ingest_dir/hostile.err" \
                || ! grep -qE "$want" "$ingest_dir/hostile.err"; then
                echo "$what: wanted an error naming the file and /$want/, got:" >&2
                cat "$ingest_dir/hostile.err" >&2
                exit 1
            fi
            hostile_runs=$((hostile_runs + 1))
        done
    done
    # The other readers of a `.titb` refuse it with the replay's error.
    for cmd in unpack inspect; do
        case $cmd in
            unpack) args=(trace unpack "$ingest_dir/bad-$kind.titb" "$ingest_dir/bad-$kind.txt") ;;
            inspect) args=(inspect --trace "$ingest_dir/bad-$kind.titb" --ranks 2) ;;
        esac
        what="corrupt .titb ($kind) under $cmd"
        if "$rep" "${args[@]}" >/dev/null 2>"$ingest_dir/hostile.err"; then
            echo "$what succeeded" >&2
            exit 1
        fi
        if grep -q panicked "$ingest_dir/hostile.err" \
            || ! grep -qF "$ingest_dir/bad-$kind.titb: " "$ingest_dir/hostile.err" \
            || ! grep -qE "$want" "$ingest_dir/hostile.err"; then
            echo "$what: wanted an error naming the file and /$want/, got:" >&2
            cat "$ingest_dir/hostile.err" >&2
            exit 1
        fi
        hostile_runs=$((hostile_runs + 1))
    done
done
# A split trace whose rank-1 fragment holds a 70 KiB line, or a line of
# rank 0: the replay, `inspect` and `trace pack` read it through the same
# cursors, so each refuses it naming the fragment, with one message.
grep '^p0 ' "$ingest_dir/s2.trace" >"$ingest_dir/split.rank0.trace"
s2_p1=$(grep '^p1 ' "$ingest_dir/s2.trace")
for kind in long rank; do
    frag="$ingest_dir/split-$kind.rank1.trace"
    case $kind in
        long)
            fault=$(printf 'p1 compute 1%71680s' '')
            want='trace parse error at line 2: line exceeds 65536 bytes'
            ;;
        rank)
            fault='p0 init'
            want='line 2 belongs to rank p0 but the file is assigned to rank p1'
            ;;
    esac
    { printf '%s\n' "$s2_p1" | head -n 1; printf '%s\n' "$fault"; printf '%s\n' "$s2_p1" | tail -n +2; } >"$frag"
    printf 'split.rank0.trace\nsplit-%s.rank1.trace\n' "$kind" >"$ingest_dir/split-$kind.desc"
    for cmd in replay inspect pack; do
        case $cmd in
            replay) args=(--platform "$ingest_dir/s2.trace.platform.json" --ranks 2 --rate 2e9
                --trace "$ingest_dir/split-$kind.desc") ;;
            inspect) args=(inspect --trace "$ingest_dir/split-$kind.desc" --ranks 2) ;;
            pack) args=(trace pack "$ingest_dir/split-$kind.desc" "$ingest_dir/split-$kind.titb" --ranks 2) ;;
        esac
        what="split trace ($kind) under $cmd"
        if "$rep" "${args[@]}" >/dev/null 2>"$ingest_dir/hostile.err"; then
            echo "$what succeeded" >&2
            exit 1
        fi
        if grep -q panicked "$ingest_dir/hostile.err" \
            || ! grep -qF "$frag: " "$ingest_dir/hostile.err" \
            || ! grep -qF "$want" "$ingest_dir/hostile.err"; then
            echo "$what: wanted an error naming $frag and '$want', got:" >&2
            cat "$ingest_dir/hostile.err" >&2
            exit 1
        fi
        hostile_runs=$((hostile_runs + 1))
    done
done
# Faulty merged text, streamed (`--no-cache`): a rank out of range mid-file
# and a 70 KiB line in rank 1 are refused by the index pass, before any
# replay; a bad verb on the last line of the last rank by that rank's
# cursor. Each error carries the file, the line number and the message of
# the whole-file decoder.
"$gen" --class S --procs 4 --steps 2 --out "$ingest_dir/s4.trace"
s4="$ingest_dir/s4.trace"
s4_lines=$(wc -l <"$s4")
half=$((s4_lines / 2))
{ head -n "$half" "$s4"; echo 'p999 init'; tail -n +$((half + 1)) "$s4"; } >"$ingest_dir/bad-rank.trace"
r1=$(grep -n -m1 '^p1 ' "$s4" | cut -d: -f1)
{ head -n "$r1" "$s4"; printf 'p1 compute 1%71680s\n' ''; tail -n +$((r1 + 1)) "$s4"; } \
    >"$ingest_dir/bad-long.trace"
{ cat "$s4"; echo 'p3 teleport 5'; } >"$ingest_dir/bad-verb.trace"
for kind in rank long verb; do
    case $kind in
        rank) want="line $((half + 1)): rank p999 out of range (trace has 4 ranks)" ;;
        long) want="line $((r1 + 1)): line exceeds 65536 bytes" ;;
        verb) want="line $((s4_lines + 1)): unknown action verb \`teleport\`" ;;
    esac
    for engine in smpi msg; do
        for threads in 1 2; do
            what="faulty text ($kind) at --engine $engine --threads $threads"
            if "$rep" --platform "$s4.platform.json" --ranks 4 --rate 2e9 --no-cache \
                --trace "$ingest_dir/bad-$kind.trace" \
                --engine "$engine" --threads "$threads" >/dev/null 2>"$ingest_dir/hostile.err"; then
                echo "$what replayed successfully" >&2
                exit 1
            fi
            if grep -q panicked "$ingest_dir/hostile.err" \
                || ! grep -qF "$ingest_dir/bad-$kind.trace: trace parse error at $want" \
                    "$ingest_dir/hostile.err"; then
                echo "$what: wanted an error naming the file and '$want', got:" >&2
                cat "$ingest_dir/hostile.err" >&2
                exit 1
            fi
            hostile_runs=$((hostile_runs + 1))
        done
    done
done
# A damaged line three quarters into rank 1 of a longer trace, far past
# what the thread decoding ahead of a sequential replay reads first: the
# replay exits 1 within 10 s, naming the rank, the file and the line.
"$gen" --class S --procs 4 --steps 60 --out "$ingest_dir/s4long.trace"
late=$(grep -n '^p1 ' "$ingest_dir/s4long.trace" | cut -d: -f1 | awk '{ l[NR] = $1 } END { print l[int(NR * 3 / 4)] }')
sed "${late}s/.*/p1 teleport 5/" "$ingest_dir/s4long.trace" >"$ingest_dir/bad-late.trace"
want="rank p1 trace stream failed: $ingest_dir/bad-late.trace: trace parse error at line $late: unknown action verb \`teleport\`"
for threads in 1 2; do
    set +e
    timeout 10 "$rep" --platform "$ingest_dir/s4long.trace.platform.json" --ranks 4 --rate 2e9 \
        --no-cache --trace "$ingest_dir/bad-late.trace" --threads "$threads" \
        >/dev/null 2>"$ingest_dir/hostile.err"
    got=$?
    set -e
    if [ "$got" != 1 ] || ! grep -qF "$want" "$ingest_dir/hostile.err"; then
        echo "late damaged line at --threads $threads: exit $got (want 1 and '$want'), got:" >&2
        cat "$ingest_dir/hostile.err" >&2
        exit 1
    fi
    hostile_runs=$((hostile_runs + 1))
done
# The same damage three quarters into the last rank, under `trace pack`:
# its workers meet it while the earlier ranks are still being written,
# and the pack exits 1 with the file, line and message a rank-by-rank
# pack gives, leaving no output and no temp file.
late=$(grep -n '^p3 ' "$ingest_dir/s4long.trace" | cut -d: -f1 | awk '{ l[NR] = $1 } END { print l[int(NR * 3 / 4)] }')
sed "${late}s/.*/p3 teleport 5/" "$ingest_dir/s4long.trace" >"$ingest_dir/bad-last.trace"
want="titreplay: $ingest_dir/bad-last.trace: trace parse error at line $late: unknown action verb \`teleport\`"
set +e
"$rep" trace pack "$ingest_dir/bad-last.trace" "$ingest_dir/bad-last.titb" --ranks 4 \
    >/dev/null 2>"$ingest_dir/hostile.err"
got=$?
set -e
if [ "$got" != 1 ] || [ "$(cat "$ingest_dir/hostile.err")" != "$want" ]; then
    echo "pack of a late damaged line: exit $got (want 1 and '$want'), got:" >&2
    cat "$ingest_dir/hostile.err" >&2
    exit 1
fi
if compgen -G "$ingest_dir/bad-last.titb*" >/dev/null; then
    echo "pack of a late damaged line left $(ls "$ingest_dir"/bad-last.titb*)" >&2
    exit 1
fi
hostile_runs=$((hostile_runs + 1))
# An interleaved file (one line of each rank in turn, as SimGrid action
# lists may be) streams one run per rank switch and replays exactly as
# its rank-major form: same stdout and stderr, same manifest but for the
# wall time.
mkdir -p "$ingest_dir/major" "$ingest_dir/inter"
"$gen" --workload halo --procs 16 --steps 20 --out "$ingest_dir/major/halo16.txt" >/dev/null
awk '{ r = $1; n[r]++; line[r, n[r]] = $0; if (!(r in seen)) { seen[r] = 1; order[++k] = r } }
     END { for (i = 1; ; i++) { any = 0
             for (j = 1; j <= k; j++) if (i <= n[order[j]]) { print line[order[j], i]; any = 1 }
             if (!any) break } }' "$ingest_dir/major/halo16.txt" >"$ingest_dir/inter/halo16.txt"
cmp -s "$ingest_dir/major/halo16.txt" "$ingest_dir/inter/halo16.txt" \
    && { echo "the interleaved halo trace is not interleaved" >&2; exit 1; }
for layout in major inter; do
    (cd "$ingest_dir/$layout" && "$OLDPWD/$rep" --platform "$ingest_dir/major/halo16.txt.platform.json" \
        --trace halo16.txt --ranks 16 --rate 2e9 --no-cache --manifest manifest.json >stdout 2>stderr)
    sed '/"wall_time_s"/d' "$ingest_dir/$layout/manifest.json" >"$ingest_dir/$layout/manifest.nowall"
done
for f in stdout stderr manifest.nowall; do
    cmp "$ingest_dir/major/$f" "$ingest_dir/inter/$f" \
        || { echo "interleaved halo trace: $f differs from the rank-major replay" >&2; exit 1; }
done
# Degenerate platforms: no nodes, no speed, no cores, no or a negative
# link bandwidth, a negative latency, no backbone bandwidth. Each must be
# refused as a bad spec naming the field, before any replay.
flat_spec() { # field value: a flat 2-node spec with one field replaced
    local spec='{"name": "bad", "kind": {"Flat": {"nodes": 2, "host_speed": 1e9, "cores": 1,'
    spec+=' "cache_bytes": 1048576, "link_bandwidth": 1.25e8, "link_latency": 2.5e-5,'
    spec+=' "backbone_bandwidth": 1.25e9, "backbone_latency": 5e-6}}}'
    echo "$spec" | sed -E "s/\"$1\": [^,}]+/\"$1\": $2/"
}
platform_runs=0
for bad in nodes=0 host_speed=0 cores=0 link_bandwidth=0 link_bandwidth=-1 \
    link_latency=-1 backbone_bandwidth=0; do
    field=${bad%%=*}
    flat_spec "$field" "${bad#*=}" >"$ingest_dir/bad-platform.json"
    if "$rep" --platform "$ingest_dir/bad-platform.json" --ranks 2 --rate 2e9 \
        --trace "$ingest_dir/s2.trace" --no-cache >/dev/null 2>"$ingest_dir/hostile.err"; then
        echo "platform with $bad replayed successfully" >&2
        exit 1
    fi
    if grep -q panicked "$ingest_dir/hostile.err" \
        || ! grep -qF "bad platform spec: \`$field\`" "$ingest_dir/hostile.err"; then
        echo "platform with $bad: wanted a bad platform spec naming $field, got:" >&2
        cat "$ingest_dir/hostile.err" >&2
        exit 1
    fi
    platform_runs=$((platform_runs + 1))
done
echo "HOSTILE_SMOKE ok ($hostile_runs runs refused, each naming the rank or the faulty file, and $platform_runs degenerate platforms naming the field; none panicked; interleaved text replays as rank-major)"

# Re-run the replay-facing suites with parallel replay as the ambient
# default, so every differential test also exercises the worker pool.
TITR_REPLAY_THREADS=4 cargo test -q -p tit-replay \
    --test parallel_replay --test runtime_semantics --test trace_roundtrip \
    --test observability --test collective_batching
echo "PARALLEL_SUITE ok (replay tests at TITR_REPLAY_THREADS=4)"

# Serve smoke: start titserved on an ephemeral port, issue the same
# what-if query twice — the first must execute, the second must be
# served from the memo (checked via /stats) with a byte-identical body —
# byte-compare the served manifest against a direct `titreplay
# --manifest` run (modulo the wall-time line), and shut down cleanly.
served=target/release/titserved
"$served" serve --port 0 --workers 2 >"$ingest_dir/serve.out" 2>&1 &
serve_pid=$!
server=""
for _ in $(seq 1 100); do
    server=$(awk '/^listening/ {print $2; exit}' "$ingest_dir/serve.out" 2>/dev/null || true)
    [ -n "$server" ] && break
    sleep 0.1
done
[ -n "$server" ] || { echo "titserved did not report a listening address" >&2; exit 1; }
# Dependency-free HTTP helper (bash /dev/tcp): prints the response body.
serve_http() { # method path
    exec 3<>"/dev/tcp/127.0.0.1/${server##*:}"
    printf '%s %s HTTP/1.1\r\nhost: ci\r\ncontent-length: 0\r\nconnection: close\r\n\r\n' \
        "$1" "$2" >&3
    sed '1,/^\r*$/d' <&3
    exec 3>&-
}
serve_http GET /healthz | grep -q '^ok$' \
    || { echo "titserved /healthz failed" >&2; exit 1; }
serve_query() {
    "$served" query --server "$server" --trace "$ingest_dir/lu.trace" \
        --platform "$plat" --ranks 8 --rate 2e9
}
serve_query >"$ingest_dir/serve.1.json" 2>"$ingest_dir/serve.1.log"
serve_query >"$ingest_dir/serve.2.json" 2>"$ingest_dir/serve.2.log"
grep -q '^cache: miss$' "$ingest_dir/serve.1.log" \
    || { echo "first serve query was not a miss" >&2; exit 1; }
grep -q '^cache: hit$' "$ingest_dir/serve.2.log" \
    || { echo "second serve query was not a memo hit" >&2; exit 1; }
cmp "$ingest_dir/serve.1.json" "$ingest_dir/serve.2.json" \
    || { echo "memoized response body differs from the original" >&2; exit 1; }
serve_http GET /stats >"$ingest_dir/serve.stats.json"
grep -q '"executions": 1' "$ingest_dir/serve.stats.json" \
    && grep -q '"cache_hits": 1' "$ingest_dir/serve.stats.json" \
    || { echo "serve stats disagree: $(cat "$ingest_dir/serve.stats.json")" >&2; exit 1; }
# Prometheus scrape: the two predicts above must show up as advanced
# request/cache counters and a populated latency histogram.
serve_http GET /metrics >"$ingest_dir/serve.metrics.txt"
metric() { awk -v s="$1" '$1 == s {printf "%s", $2}' "$ingest_dir/serve.metrics.txt"; }
grep -q '^# TYPE titserved_requests_total counter$' "$ingest_dir/serve.metrics.txt" \
    && grep -q '^# TYPE titserved_request_duration_seconds histogram$' "$ingest_dir/serve.metrics.txt" \
    || { echo "metrics scrape missing TYPE headers" >&2; exit 1; }
m_predict=$(metric 'titserved_requests_total{endpoint="/predict"}')
m_exec=$(metric 'titserved_executions_total')
m_hit=$(metric 'titserved_cache_total{disposition="hit"}')
m_lat=$(metric 'titserved_request_duration_seconds_count{endpoint="/predict"}')
[ "${m_predict:-0}" -eq 2 ] && [ "${m_exec:-0}" -eq 1 ] && [ "${m_hit:-0}" -eq 1 ] \
    || { echo "metrics counters wrong (predict=$m_predict exec=$m_exec hit=$m_hit)" >&2; exit 1; }
[ "${m_lat:-0}" -eq 2 ] \
    || { echo "latency histogram not populated (count=$m_lat)" >&2; exit 1; }
# /stats and /metrics render one counter set, so they agree.
s_exec=$(sed -n 's/^ *"executions": \([0-9]*\),$/\1/p' "$ingest_dir/serve.stats.json")
[ -n "$s_exec" ] && [ "$s_exec" = "$m_exec" ] \
    || { echo "/stats executions=$s_exec but /metrics says $m_exec" >&2; exit 1; }
# A platform with no nodes is refused naming the field, and the service
# goes on answering: a fresh question executes within 10 s.
zero='{"trace": "'"$ingest_dir/lu.trace"'", "ranks": 8, "config": {"rate": 2e9}, "platform": '
zero+='{"name": "zero", "kind": {"Flat": {"nodes": 0, "host_speed": 1e9, "cores": 1, '
zero+='"cache_bytes": 1048576, "link_bandwidth": 1.25e8, "link_latency": 2.5e-5, '
zero+='"backbone_bandwidth": 1.25e9, "backbone_latency": 5e-6}}}}'
exec 3<>"/dev/tcp/127.0.0.1/${server##*:}"
printf 'POST /predict HTTP/1.1\r\nhost: ci\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
    "${#zero}" "$zero" >&3
cat <&3 >"$ingest_dir/serve.zero.txt"
exec 3>&-
head -1 "$ingest_dir/serve.zero.txt" | grep -q ' 400 ' \
    && grep -qF '`nodes`' "$ingest_dir/serve.zero.txt" \
    || { echo "zero-node platform not refused: $(cat "$ingest_dir/serve.zero.txt")" >&2; exit 1; }
timeout 10 "$served" query --server "$server" --trace "$ingest_dir/lu.trace" \
    --platform "$plat" --ranks 8 --rate 3e9 >/dev/null 2>"$ingest_dir/serve.3.log" \
    && grep -q '^cache: miss$' "$ingest_dir/serve.3.log" \
    || { echo "no fresh answer after the refused platform: $(cat "$ingest_dir/serve.3.log")" >&2; exit 1; }
"$rep" --platform "$plat" --ranks 8 --rate 2e9 --trace "$ingest_dir/lu.trace" \
    --manifest "$ingest_dir/serve.cli.json" >/dev/null 2>&1
norm_manifest() { sed '/"wall_time_s"/d' "$1"; }
cmp <(norm_manifest "$ingest_dir/serve.1.json") <(norm_manifest "$ingest_dir/serve.cli.json") \
    || { echo "served manifest differs from the titreplay CLI manifest" >&2; exit 1; }
# A retired knob is refused like any unknown field, even naming the one
# model that remains.
stale='{"trace": "'"$ingest_dir/lu.trace"'", "ranks": 8, "platform": "'"$plat"'", '
stale+='"config": {"rate": 2e9, "sharing": "bottleneck"}}'
exec 3<>"/dev/tcp/127.0.0.1/${server##*:}"
printf 'POST /predict HTTP/1.1\r\nhost: ci\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
    "${#stale}" "$stale" >&3
cat <&3 >"$ingest_dir/serve.stale.txt"
exec 3>&-
head -1 "$ingest_dir/serve.stale.txt" | grep -q ' 400 ' \
    && grep -q "unknown config field 'sharing'" "$ingest_dir/serve.stale.txt" \
    || { echo "stale sharing field not refused: $(cat "$ingest_dir/serve.stale.txt")" >&2; exit 1; }
serve_http POST /shutdown >"$ingest_dir/serve.shutdown.txt"
grep -qx 'shutting down' "$ingest_dir/serve.shutdown.txt" \
    || { echo "no reply to /shutdown: $(cat "$ingest_dir/serve.shutdown.txt")" >&2; exit 1; }
wait "$serve_pid" \
    || { echo "titserved did not shut down cleanly" >&2; exit 1; }
echo "SERVE_SMOKE ok (memoized second query byte-identical, manifest matches CLI, /metrics counters advanced and agree with /stats, /shutdown answered, zero-node platform refused and a fresh query answered, stale sharing field refused)"
