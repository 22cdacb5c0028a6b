#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs --offline: the workspace is
# hermetic (no registry crates), and CI must prove it stays that way.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> rustdoc gate (a broken or ambiguous doc link fails)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "==> parallel-engine worker-determinism guard"
cargo test -q --offline -p hardsnap --test parallel

echo "==> sim-engine differential guard (bytecode vs interpreter)"
# Random designs under random stimulus: the compiled bytecode engine
# must match the reference interpreter on every net, memory word and
# snapshot image, every cycle.
cargo test -q --offline -p hardsnap-sim --test differential
cargo test -q --offline -p hardsnap --test sim_engines

echo "==> sim-throughput smoke run (three engines checksummed on every corpus design)"
# exp_sim_throughput asserts that the interpreter, full-evaluation
# bytecode and activity-scheduled bytecode end every run (active and
# quiescent, every corpus design and the SoC) in the same state.
cargo run -q --release --offline -p hardsnap-bench --bin exp_sim_throughput -- \
    --smoke --json target/BENCH_sim_throughput.smoke.json

echo "==> sim-engine digest gate: analyze demo, delta {off,on} x 3 engines x workers {1,2,4}"
# End-to-end: the full analysis pipeline must produce one canonical
# digest no matter which RTL evaluation backend runs underneath, how
# many workers share the store, or whether snapshots travel as full
# images or activity-proportional delta captures.
engine_digest=""
for delta in off on; do
    for eng in interp bytecode-full bytecode; do
        for w in 1 2 4; do
            cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
                analyze demo --workers "$w" --sim-engine "$eng" --delta-snapshots "$delta" \
                > "target/analyze.$delta.$eng.$w.txt"
            d=$(grep 'canonical digest' "target/analyze.$delta.$eng.$w.txt" | awk '{print $NF}')
            if [ -z "$d" ]; then
                echo "no digest from --delta-snapshots $delta --sim-engine $eng --workers $w"
                exit 1
            fi
            if [ -z "$engine_digest" ]; then
                engine_digest="$d"
            elif [ "$d" != "$engine_digest" ]; then
                echo "digest diverged: --delta-snapshots $delta --sim-engine $eng --workers $w gave $d, want $engine_digest"
                exit 1
            fi
            # Feasibility questions are sliced and cached per executor:
            # 14 answered (2 per branch point) at any worker count, and at
            # one worker exactly 8 from the cache (2 decided per depth).
            read -r questions cached <<< "$(awk '/^solver queries/ {gsub(/[()]/, ""); print $4, $5}' \
                "target/analyze.$delta.$eng.$w.txt")"
            if [ "$questions" != 14 ] || { [ "$w" = 1 ] && [ "$cached" != 8 ]; }; then
                echo "solver questions: --delta-snapshots $delta --sim-engine $eng --workers $w answered '$questions' ('$cached' cached), want 14 (8 cached at 1 worker)"
                exit 1
            fi
        done
    done
done
echo "    digests match across delta x engines x workers: $engine_digest"
echo "    14 solver questions each, 8 from the cache at 1 worker"

echo "==> persistence gate: save -> fresh-process resume, digest bit-identical"
# An instruction-budget-interrupted campaign checkpointed to disk and
# resumed by a *fresh process* must report exactly the digest of one
# uninterrupted run, whatever engine, worker count, or snapshot
# representation produced the checkpoint. The save must leave its one
# checkpoint file, and that file (nested images included) must pass
# deep validation standalone. Each run reports why it stopped and how
# many states it left: the cut run `instructions` with states left,
# the resumed run `complete` with none.
stop_and_frontier() { # analyze output -> "<stop reason> <frontier>"
    awk '/^stop reason/ {s = $NF} /^frontier/ {f = $3} END {print s, f}' "$1"
}
for delta in off on; do
    for eng in interp bytecode; do
        for w in 1 2 4; do
            dir="target/campaign.$delta.$eng.$w"
            rm -rf "$dir"
            cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
                analyze demo --workers "$w" --sim-engine "$eng" --delta-snapshots "$delta" \
                --max-instructions 40 --save-snapshots "$dir" > "target/cut.$delta.$eng.$w.txt"
            cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
                analyze demo --workers "$w" --sim-engine "$eng" --delta-snapshots "$delta" \
                --resume "$dir" > "target/resume.$delta.$eng.$w.txt"
            read -r cut_stop cut_left <<< "$(stop_and_frontier "target/cut.$delta.$eng.$w.txt")"
            read -r res_stop res_left <<< "$(stop_and_frontier "target/resume.$delta.$eng.$w.txt")"
            if [ "$cut_stop" != instructions ] || [ -z "$cut_left" ] || [ "$cut_left" = 0 ] \
                || [ "$res_stop" != complete ] || [ "$res_left" != 0 ]; then
                echo "stop reports wrong: --delta-snapshots $delta --sim-engine $eng --workers $w cut '$cut_stop' with '$cut_left' states left (want instructions, > 0), resumed '$res_stop' with '$res_left' (want complete, 0)"
                exit 1
            fi
            d=$(grep 'canonical digest' "target/resume.$delta.$eng.$w.txt" | awk '{print $NF}')
            if [ "$d" != "$engine_digest" ]; then
                echo "resume diverged: --delta-snapshots $delta --sim-engine $eng --workers $w gave '$d', want $engine_digest"
                exit 1
            fi
            if [ ! -f "$dir/campaign.hscamp" ]; then
                echo "no checkpoint file: $dir/campaign.hscamp"
                exit 1
            fi
            cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
                snapshot validate --deep "$dir/campaign.hscamp" > /dev/null
        done
    done
done
echo "    resumed digests match across delta x engines x workers: $engine_digest"
echo "    cut runs stop at instructions with states left, resumed runs complete with none"
# One worker is deterministic down to the byte: both sim engines must
# write the same checkpoint. Past one worker the frontier a budget cuts
# depends on the schedule, so those files differ from run to run.
for delta in off on; do
    if ! cmp -s "target/campaign.$delta.interp.1/campaign.hscamp" \
        "target/campaign.$delta.bytecode.1/campaign.hscamp"; then
        echo "one-worker checkpoints differ between sim engines (--delta-snapshots $delta)"
        exit 1
    fi
done
echo "    one-worker checkpoints byte-identical across sim engines (delta off, on)"
# Spilling is transparent down to the checkpoint byte: a one-worker delta
# save under a 1 KiB snapshot budget must spill (and page back in), and
# still write exactly the unbudgeted one-worker checkpoint.
for eng in interp bytecode; do
    dir="target/campaign.spill.$eng"
    rm -rf "$dir"
    cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
        analyze demo --workers 1 --sim-engine "$eng" --delta-snapshots on \
        --max-instructions 40 --snapshot-mem-budget 1024 --save-snapshots "$dir" \
        > "$dir.txt"
    spills=$(awk '/^snapshot store/ {print $5}' "$dir.txt")
    if [ -z "$spills" ] || [ "$spills" -eq 0 ]; then
        echo "no spills under a 1024-byte snapshot budget (--sim-engine $eng): '$spills'"
        exit 1
    fi
    if ! cmp -s "$dir/campaign.hscamp" "target/campaign.on.$eng.1/campaign.hscamp"; then
        echo "budgeted one-worker checkpoint differs from the unbudgeted one (--sim-engine $eng)"
        exit 1
    fi
done
echo "    one-worker delta checkpoints byte-identical with and without spilling"

echo "==> snapshot-persistence smoke run (lazy restore + RAM budget + campaign resume)"
# exp_snapshot_persist asserts internally that a quiescent lazy resume
# pages in zero sections and beats the eager restore >= 5x on sim, that
# a 4x over-committed store spills and stays under budget with the
# digest unchanged, and that save -> fresh-engine resume reproduces the
# uninterrupted digest.
cargo run -q --release --offline -p hardsnap-bench --bin exp_snapshot_persist -- \
    --smoke --json target/BENCH_snapshot_persist.smoke.json

echo "==> cross-target restore: FPGA -> simulator -> FPGA mid-AES, bit-exact ciphertext"
# exp_multi_target moves live state between the two targets in the
# middle of an AES-128 encryption, both ways, and asserts that the
# target finishing the run reads back the golden model's ciphertext:
# the only end-to-end cross-target restore in the repository.
cargo run -q --release --offline -p hardsnap-bench --bin exp_multi_target

echo "==> 2-worker analysis-speed smoke run"
cargo run -q --release --offline -p hardsnap-bench --bin exp_analysis_speed -- \
    --workers 1,2 --json target/BENCH_analysis_speed.smoke.json

echo "==> snapshot-overhead smoke run (delta materialization + digest invariance)"
# Every sweep point's delta capture is materialized and content-hash
# checked against the live state inside the binary; the digest section
# re-proves delta on/off invariance end to end.
cargo run -q --release --offline -p hardsnap-bench --bin exp_snapshot_overhead -- \
    --smoke --json target/BENCH_snapshot_overhead.smoke.json

echo "==> telemetry gate: traced 2-worker run, valid trace + digest equality"
# A traced run must produce a well-formed Chrome trace (non-empty,
# monotonically ordered per-track events) and a canonical digest
# bit-identical to the untraced run: telemetry is observe-only.
cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
    analyze demo --workers 2 --trace-out target/trace.smoke.json \
    > target/analyze.traced.txt
cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
    trace-check target/trace.smoke.json
cargo run -q --release --offline -p hardsnap-bench --bin hardsnap-cli -- \
    analyze demo --workers 2 > target/analyze.plain.txt
traced_digest=$(grep 'canonical digest' target/analyze.traced.txt | awk '{print $NF}')
plain_digest=$(grep 'canonical digest' target/analyze.plain.txt | awk '{print $NF}')
if [ "$traced_digest" != "$plain_digest" ] || [ -z "$traced_digest" ]; then
    echo "telemetry perturbed the result: traced=$traced_digest plain=$plain_digest"
    exit 1
fi
echo "    digests match: $traced_digest"

echo "==> chaos gate: 2-worker smoke under a 10% fault rate"
# exp_fault_recovery asserts internally that every faulted point's
# canonical digest is bit-identical to the fault-free run and that the
# zero-budget hang plan quarantines at least one replica.
cargo run -q --release --offline -p hardsnap-bench --bin exp_fault_recovery -- \
    --smoke --json target/BENCH_fault_recovery.smoke.json

echo "==> serve smoke run (pool contention, admission, over-budget resume, SIGKILL recovery)"
# exp_serve asserts internally that concurrent jobs sharing a bounded
# replica pool reproduce the reference digest, that admission control
# rejects an over-wide job and a full queue with a typed error, that a
# vtime-budgeted job stops over-budget and resumes to the reference
# digest, and that SIGKILL-ing the live daemon mid-checkpoint loses
# nothing after restart. It runs with TMPDIR pointed at an emptied
# directory, so the check below sees every daemon state directory it
# made and fails if one outlives the run.
SERVE_TMP="$PWD/target/serve-smoke-tmp"
rm -rf "$SERVE_TMP"
mkdir -p "$SERVE_TMP"
TMPDIR="$SERVE_TMP" cargo run -q --release --offline -p hardsnap-bench --bin exp_serve -- \
    --smoke --json target/BENCH_serve.smoke.json
leftover=$(find "$SERVE_TMP" -mindepth 1 -maxdepth 1 -name 'hardsnap-exp-serve-*')
if [ -n "$leftover" ]; then
    echo "exp_serve left state directories behind:"
    echo "$leftover"
    exit 1
fi

echo "==> serve gate: daemon, concurrent verdict exit codes, kill -9 + restart"
# Drives the real daemon binary over its unix socket with the CLI
# verbs, checking the full exit-code contract:
#   0 completed/stable, 2 saturated, 3 flaky, 4 cancelled/over-budget.
SERVE=target/release/hardsnap-serve
CLI=target/release/hardsnap-cli
SDIR=target/serve-ci
SOCK=$SDIR/serve.sock
SERVE_LOG=target/serve-ci.log
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
rm -rf "$SDIR"
"$SERVE" --state-dir "$SDIR" --socket "$SOCK" --pool 2 --queue-max 8 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!

# Three concurrent jobs on a 2-replica pool: a clean run, an
# over-budget run, and a flaky run (same parameters the serve crate's
# unit tests pin down as deterministically stable/flaky).
ok_id=$("$CLI" submit demo:5 --socket "$SOCK" --name ok | awk '{print $3}')
ob_id=$("$CLI" submit demo:5 --socket "$SOCK" --name over-budget \
    --max-vtime-ns 50000 | awk '{print $3}')
fl_id=$("$CLI" submit demo:3 --socket "$SOCK" --name flaky \
    --fault-rate 0.9 --repeat 3 | awk '{print $3}')
rc_ok=0; "$CLI" wait "$ok_id" --socket "$SOCK" > target/serve.ok.txt || rc_ok=$?
rc_ob=0; "$CLI" wait "$ob_id" --socket "$SOCK" > /dev/null || rc_ob=$?
rc_fl=0; "$CLI" wait "$fl_id" --socket "$SOCK" > /dev/null || rc_fl=$?
if [ "$rc_ok" != 0 ] || [ "$rc_ob" != 4 ] || [ "$rc_fl" != 3 ]; then
    echo "serve exit codes wrong: ok=$rc_ok (want 0) over-budget=$rc_ob (want 4) flaky=$rc_fl (want 3)"
    exit 1
fi
ok_digest=$(awk '{print $(NF-1)}' target/serve.ok.txt)

# Wall clock is the engine's deadline, fixed when the job starts: a
# cold job spends more than 1 ms building its prototype, so it stops at
# its first quantum boundary over budget, and result.json names the
# wall-clock stop.
wall_id=$("$CLI" submit demo:5 --socket "$SOCK" --name wall --wall-ms 1 | awk '{print $3}')
rc_wall=0; "$CLI" wait "$wall_id" --socket "$SOCK" > /dev/null || rc_wall=$?
wall_result="$SDIR/jobs/$wall_id/result.json"
if [ "$rc_wall" != 4 ] || ! grep -q '"verdict": *"over-budget"' "$wall_result" \
    || ! grep -q '"stop": *"wall-clock"' "$wall_result"; then
    echo "wall budget: exit $rc_wall (want 4) and result.json (want over-budget, wall-clock):"
    cat "$wall_result" 2>/dev/null || true
    exit 1
fi

# Admission control: a job wider than the whole pool is a typed
# saturation rejection (exit 2), not an error or a hang.
rc_sat=0; "$CLI" submit demo:3 --socket "$SOCK" --workers 3 > /dev/null 2>&1 || rc_sat=$?
if [ "$rc_sat" != 2 ]; then
    echo "saturation returned exit $rc_sat, want 2"
    exit 1
fi

# Crash safety: submit a job that checkpoints every 32 instructions,
# SIGKILL the daemon inside the run, restart on the same state dir,
# and the recovered job must complete with the clean run's digest.
kill_id=$("$CLI" submit demo:5 --socket "$SOCK" --name kill-me \
    --leg-instructions 32 | awk '{print $3}')
for _ in $(seq 1 2000); do
    if [ -e "$SDIR/jobs/$kill_id/checkpoint/campaign.hscamp" ] \
        && [ ! -e "$SDIR/jobs/$kill_id/result.json" ]; then
        break
    fi
    sleep 0.01
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$SERVE" --state-dir "$SDIR" --socket "$SOCK" --pool 2 --queue-max 8 >> "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
rc_kill=0; "$CLI" wait "$kill_id" --socket "$SOCK" > target/serve.recovered.txt || rc_kill=$?
rec_digest=$(awk '{print $(NF-1)}' target/serve.recovered.txt)
if [ "$rc_kill" != 0 ] || [ "$rec_digest" != "$ok_digest" ] || [ -z "$ok_digest" ]; then
    echo "recovery failed: exit=$rc_kill digest=$rec_digest want=$ok_digest"
    exit 1
fi
"$CLI" cancel daemon --socket "$SOCK" > /dev/null
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "    verdict exit codes + wall budget + SIGKILL recovery OK, digest $rec_digest"

echo "==> observability gate: subscribe stream, Prometheus scrape, flight recorder"
# A fresh daemon serves Prometheus text exposition on an ephemeral TCP
# port while a subscriber captures the live event stream; every
# observability artifact must validate under trace-check and the
# observed job's digest must equal the dark run's from the gate above.
ODIR=target/serve-obs
OSOCK=$ODIR/serve.sock
OLOG=target/serve-obs.log
rm -rf "$ODIR"
"$SERVE" --state-dir "$ODIR" --socket "$OSOCK" --pool 2 --queue-max 8 \
    --metrics-addr 127.0.0.1:0 > "$OLOG" 2>&1 &
SERVE_PID=$!
# The daemon announces the bound endpoint (port 0 = ephemeral); parse it.
for _ in $(seq 1 200); do
    grep -q 'metrics on http://' "$OLOG" && break
    sleep 0.05
done
MADDR=$(sed -n 's#.*metrics on http://\([^/]*\)/metrics#\1#p' "$OLOG" | head -1)
if [ -z "$MADDR" ]; then
    echo "daemon never announced its metrics endpoint"
    exit 1
fi
MHOST=${MADDR%:*}; MPORT=${MADDR##*:}

# Capture the first few lifecycle events as NDJSON while the job runs.
"$CLI" subscribe --socket "$OSOCK" --count 4 --timeout-secs 60 \
    --out target/serve.events.ndjson 2>/dev/null &
SUB_PID=$!
obs_id=$("$CLI" submit demo:5 --socket "$OSOCK" --name observed \
    --leg-instructions 64 | awk '{print $3}')

# Scrape the exposition endpoint mid-run with bash's /dev/tcp, then
# strip the HTTP response headers.
exec 3<>"/dev/tcp/$MHOST/$MPORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
sed -e '1,/^\r\{0,1\}$/d' <&3 > target/serve.metrics.prom
exec 3<&- 3>&-

rc_obs=0; "$CLI" wait "$obs_id" --socket "$OSOCK" > target/serve.obs.txt || rc_obs=$?
obs_digest=$(awk '{print $(NF-1)}' target/serve.obs.txt)
if [ "$rc_obs" != 0 ] || [ "$obs_digest" != "$ok_digest" ]; then
    echo "observed run diverged: exit=$rc_obs digest=$obs_digest want=$ok_digest"
    exit 1
fi
wait "$SUB_PID"

# Every artifact validates under the format-sniffing trace-check:
# the captured event stream, the mid-run scrape, the aggregated JSON
# snapshot, the flight dump, and the job's terminal-commit artifacts.
"$CLI" metrics --socket "$OSOCK" > target/serve.metrics.json
"$CLI" dump-flight --socket "$OSOCK" --out target/serve.flight.json 2>/dev/null
"$CLI" trace-check target/serve.events.ndjson
"$CLI" trace-check target/serve.metrics.prom
"$CLI" trace-check target/serve.metrics.json
"$CLI" trace-check target/serve.flight.json
"$CLI" trace-check "$ODIR/jobs/$obs_id/metrics.json"
"$CLI" trace-check "$ODIR/jobs/$obs_id/trace.json"
grep -q '^hardsnap_serve_jobs_admitted_total' target/serve.metrics.prom || {
    echo "mid-run scrape is missing serve counters"
    exit 1
}

# SIGTERM leaves a post-mortem flight dump on disk before shutdown.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 200); do
    [ -e "$ODIR/flight.json" ] && break
    sleep 0.05
done
"$CLI" trace-check "$ODIR/flight.json"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "    event stream + exposition + flight recorder OK, digest $obs_digest"

echo "==> sched smoke run (warm-start speedup, lanes vs fifo, digest invariance)"
# exp_sched asserts internally that a warm fork digests identically to
# a cold boot and that fifo and lanes orderings produce bit-identical
# per-job digests.
cargo run -q --release --offline -p hardsnap-bench --bin exp_sched -- \
    --smoke --json target/BENCH_sched.smoke.json

echo "==> ship gate: a checkpoint is one file that resumes anywhere"
# Copies only the checkpoint file a persistence-gate run wrote into an
# empty directory: inspect must name it a campaign of the SoC design,
# deep validation must pass (nested images included), and a fresh
# process must resume it to the reference digest.
SHIP=target/ci-ship
rm -rf "$SHIP"
mkdir -p "$SHIP"
cp target/campaign.off.bytecode.1/campaign.hscamp "$SHIP/"
# Buffer inspect output before grepping: grep -q exits on first match
# and would SIGPIPE the CLI mid-print under pipefail.
"$CLI" snapshot inspect "$SHIP/campaign.hscamp" > target/ci.inspect.txt
if ! grep -q '^kind *: campaign$' target/ci.inspect.txt \
    || ! grep -q '^design *: soc_top$' target/ci.inspect.txt; then
    echo "inspect did not report a campaign of the SoC design:"
    cat target/ci.inspect.txt
    exit 1
fi
"$CLI" snapshot validate --deep "$SHIP/campaign.hscamp" > /dev/null
"$CLI" analyze demo --sim-engine bytecode --delta-snapshots off --resume "$SHIP" \
    > target/ship.resume.txt
d=$(grep 'canonical digest' target/ship.resume.txt | awk '{print $NF}')
if [ "$d" != "$engine_digest" ]; then
    echo "shipped checkpoint resumed to '$d', want $engine_digest"
    exit 1
fi
echo "    copy one file -> inspect -> deep validate -> fresh-process resume OK, digest $d"

echo "==> sched gate: warm-pool daemon, mixed-priority burst, lanes vs fifo"
# Drives the real daemon twice over its socket with the same burst —
# a long job holding one replica, an unseatable 2-worker wide job at
# the head, then narrow high-priority jobs behind it. Under lanes the
# narrows must wait less (packing + priority) than under strict fifo,
# with every digest bit-identical to the fifo reference.
job_state() { # status file, job name -> queued|running|done
    awk -v name="$2" '$1 == "job" && $NF == name { print $3 }' "$1"
}
run_burst() { # state-dir, sched policy, summary-out; leaves no daemon
    local dir=$1 policy=$2 outf=$3
    local sock="$dir/serve.sock"
    rm -rf "$dir"
    "$SERVE" --state-dir "$dir" --socket "$sock" --pool 2 --queue-max 16 \
        --sched "$policy" --aging-ms 400 --warm-pool 2 >> "$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    # Wait until both prototypes are built: from then on every seat in
    # the burst leases one, because at most 2 jobs run and a job returns
    # its lease before it frees its replicas. Poll output is buffered
    # to a file: grep -q on a live pipe exits on first match and would
    # SIGPIPE the CLI mid-print.
    local warm=""
    for _ in $(seq 1 500); do
        "$CLI" status --socket "$sock" > "$dir/poll.txt" 2>/dev/null || true
        if grep -q 'warm 2/2' "$dir/poll.txt"; then
            warm=1
            break
        fi
        sleep 0.01
    done
    if [ -z "$warm" ]; then
        echo "warm pool never reached 2/2 ready under $policy:"
        cat "$dir/poll.txt"
        exit 1
    fi
    local hold wide id
    # demo:8 (256 paths in 64-instruction legs) runs for hundreds of
    # milliseconds, far longer than the six submissions below take.
    hold=$("$CLI" submit demo:8 --socket "$sock" --name hold \
        --leg-instructions 64 | awk '{print $3}')
    # The wide job must arrive while hold runs, or it seats instantly.
    for _ in $(seq 1 500); do
        "$CLI" status "$hold" --socket "$sock" > "$dir/poll.txt"
        grep -q ' running ' "$dir/poll.txt" && break
        sleep 0.01
    done
    wide=$("$CLI" submit demo:5 --socket "$sock" --name wide \
        --workers 2 --priority 0 | awk '{print $3}')
    for i in 1 2 3 4 5; do
        "$CLI" submit demo:2 --socket "$sock" --name "n$i" --priority 7 > /dev/null
    done
    # The comparison means something only if the burst met its premise:
    # hold still runs, so wide cannot seat, and under fifo every narrow
    # job queues behind wide (lanes may already have seated some).
    "$CLI" status --socket "$sock" > "$dir/premise.txt"
    local premise=1
    if [ "$(job_state "$dir/premise.txt" hold)" != running ] \
        || [ "$(job_state "$dir/premise.txt" wide)" != queued ]; then
        premise=""
    fi
    if [ "$policy" = fifo ]; then
        for i in 1 2 3 4 5; do
            [ "$(job_state "$dir/premise.txt" "n$i")" = queued ] || premise=""
        done
    fi
    if [ -z "$premise" ]; then
        echo "sched gate premise not met under $policy: after the fifth narrow submission" \
            "hold must run, wide must queue and (fifo) every narrow job must queue:"
        cat "$dir/premise.txt"
        exit 1
    fi
    "$CLI" wait "$wide" --socket "$sock" > /dev/null
    for id in $(seq 1 7); do
        "$CLI" wait "$id" --socket "$sock" > /dev/null
    done
    "$CLI" status --socket "$sock" > "$outf"
    "$CLI" metrics --socket "$sock" > "$outf.metrics.json"
    "$CLI" cancel daemon --socket "$sock" > /dev/null
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}
narrow_max_wait() { # summary file -> worst narrow queue wait (ms)
    awk '$NF ~ /^n[0-9]$/ { for (i = 1; i < NF; i++) if ($i == "wait") print $(i + 1) }' \
        "$1" | sort -n | tail -1
}
run_burst target/serve-sched-fifo fifo target/sched.fifo.txt
run_burst target/serve-sched-lanes lanes target/sched.lanes.txt
fifo_wait=$(narrow_max_wait target/sched.fifo.txt)
lanes_wait=$(narrow_max_wait target/sched.lanes.txt)
if [ -z "$fifo_wait" ] || [ -z "$lanes_wait" ] || [ "$lanes_wait" -ge "$fifo_wait" ]; then
    echo "lanes did not improve narrow queue wait: lanes=$lanes_wait ms fifo=$fifo_wait ms"
    exit 1
fi
# Scheduling policy must never change what a job computes: identical
# name -> digest pairs under both orderings.
awk '/^job / {print $NF, $(NF-1)}' target/sched.fifo.txt | sort > target/sched.fifo.digests
awk '/^job / {print $NF, $(NF-1)}' target/sched.lanes.txt | sort > target/sched.lanes.digests
if ! cmp -s target/sched.fifo.digests target/sched.lanes.digests; then
    echo "scheduling policy changed a canonical digest:"
    diff target/sched.fifo.digests target/sched.lanes.digests || true
    exit 1
fi
# The warm pool served every seat of both bursts: 7 pool hits and no
# miss (a zero counter is omitted from the snapshot). The lane/pool
# telemetry fields are present and well-formed.
for policy in fifo lanes; do
    m="target/sched.$policy.txt.metrics.json"
    if ! grep -q '"serve\.pool_hits": *7[,}]' "$m" || grep -q '"serve\.pool_misses"' "$m"; then
        echo "$policy burst did not lease a warm prototype for each of its 7 jobs:"
        grep -o '"serve\.pool_[a-z]*": *[0-9]*' "$m" || true
        exit 1
    fi
done
grep -q ' warm ' target/sched.lanes.txt || {
    echo "no job reported warm-pool provenance"
    exit 1
}
"$CLI" trace-check target/sched.lanes.txt.metrics.json
for field in 'serve\.pool_' 'serve\.queue_wait_ms\.lane' 'serve\.warm_target'; do
    grep -Eq "$field" target/sched.lanes.txt.metrics.json || {
        echo "metrics snapshot is missing $field"
        exit 1
    }
done
echo "    lanes narrow wait $lanes_wait ms < fifo $fifo_wait ms, digests identical, 7/7 warm leases per burst, lane telemetry OK"

echo "==> benchmark: its own tests, then a smoke run of all four workloads"
# The benchmark is a separate package compiled against the crates'
# public API; building and smoke-running it here catches an API change
# that would break it. --smoke exits non-zero if any correctness check
# (digest, path count, verdict) fails.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --seed 1 --smoke

echo "==> OK"
