#!/usr/bin/env bash
# The full local gate: formatting, lints, build, and every test in the
# workspace. CI and pre-push hooks should run exactly this script so
# the two can never disagree.
set -euo pipefail
cd "$(dirname "$0")/.."
TREE_BEFORE="$(git status --porcelain)"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release (bench/e2e: the frozen benchmark still compiles)"
# Its lock file is frozen too, but cargo rewrites it whenever the
# workspace's dependency edges moved since: put the committed one back.
E2E_LOCK="$(cat bench/e2e/Cargo.lock)"
cargo build --release --manifest-path bench/e2e/Cargo.toml
printf '%s\n' "$E2E_LOCK" > bench/e2e/Cargo.lock

echo "==> telemetry smoke: integration tests (histograms + OCP walk)"
# Drives RDS verbs through the protocol front-end, asserts non-zero
# per-verb latency histograms, and walks the mbdTelemetry OCP subtree
# with the legacy SNMP manager engine.
cargo test --release -q --test telemetry

echo "==> telemetry smoke: live server binary"
SMOKE_DIR="$(mktemp -d)"
SERVER_PIDS=()
cleanup_smoke() {
    kill "${SERVER_PIDS[@]}" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT

# boot_server LOG ARGS...: starts mbd-server on a port the kernel picks
# (so no smoke can collide with another, or with an outgoing socket in
# the ephemeral range), waits for its "listening on" line and leaves the
# pid in SERVER_PID, the address in SERVER_ADDR and an mbdctl pointed at
# it in MBDCTL.
boot_server() {
    local log="$1"
    shift
    ./target/release/mbd-server --listen 127.0.0.1:0 "$@" > "$log" 2>&1 &
    SERVER_PID=$!
    SERVER_PIDS+=("$SERVER_PID")
    for _ in $(seq 1 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
    SERVER_ADDR="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$log")"
    [ -n "$SERVER_ADDR" ] || {
        echo "smoke FAILED: mbd-server $* never listened:"
        cat "$log"
        exit 1
    }
    MBDCTL=(./target/release/mbdctl --server "$SERVER_ADDR")
}
stop_server() {
    kill "$@" "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
}

SMOKE_LOG="$SMOKE_DIR/server.log"
echo 'fn main() { return 41 + 1; }' > "$SMOKE_DIR/work.dpl"
boot_server "$SMOKE_LOG" --stats 1
"${MBDCTL[@]}" delegate smoke "$SMOKE_DIR/work.dpl" >/dev/null
SMOKE_DPI="$("${MBDCTL[@]}" instantiate smoke)"
for _ in 1 2 3 4 5; do
    "${MBDCTL[@]}" invoke "$SMOKE_DPI" main >/dev/null
done
"${MBDCTL[@]}" suspend "$SMOKE_DPI" >/dev/null
"${MBDCTL[@]}" resume "$SMOKE_DPI" >/dev/null
sleep 2 # let a --stats tick print the filled histograms (and refresh OCP)

# A delegated watchdog agent walks its own server's mbdDpiAccounting
# subtree (enterprises.20100.5) — the accounting rows must be there.
echo 'fn count() { return len(mib_walk("1.3.6.1.4.1.20100.5")); }' > "$SMOKE_DIR/walker.dpl"
"${MBDCTL[@]}" delegate walker "$SMOKE_DIR/walker.dpl" >/dev/null
WALKER_DPI="$("${MBDCTL[@]}" instantiate walker)"
ACCT_ROWS="$("${MBDCTL[@]}" invoke "$WALKER_DPI" count)"
[ "$ACCT_ROWS" -gt 0 ] 2>/dev/null || {
    echo "smoke FAILED: delegated walk of 20100.5 saw no accounting rows (got \`$ACCT_ROWS\`)"
    exit 1
}

# The audit journal must have recorded the driven verbs, each under a
# non-zero trace id minted by mbdctl.
JOURNAL_OUT="$SMOKE_DIR/journal.txt"
"${MBDCTL[@]}" journal > "$JOURNAL_OUT"
for verb in delegate instantiate invoke suspend resume; do
    grep -Eq "trace=0{16} .* verb=$verb " "$JOURNAL_OUT" && {
        echo "smoke FAILED: journal has an untraced \`$verb\` record:"
        grep " verb=$verb " "$JOURNAL_OUT"
        exit 1
    }
    grep -Eq "trace=[0-9a-f]{16} principal=mbdctl verb=$verb " "$JOURNAL_OUT" || {
        echo "smoke FAILED: journal is missing a traced \`$verb\` record:"
        cat "$JOURNAL_OUT"
        exit 1
    }
done
echo "smoke ok: $ACCT_ROWS accounting rows walked, $(wc -l < "$JOURNAL_OUT") journal records traced"

stop_server
for metric in 'rds\.verb\.invoke +5 ' 'ep\.invoke +5 ' \
    'rds\.verb\.suspend +1 ' 'rds\.tcp\.request +[1-9]'; do
    grep -Eq "  $metric" "$SMOKE_LOG" || {
        echo "smoke FAILED: \`$metric\` not in the server's --stats output:"
        cat "$SMOKE_LOG"
        exit 1
    }
done
echo "smoke ok: per-verb histograms filled ($(grep -c 'telemetry snapshot' "$SMOKE_LOG") stats ticks)"

echo "==> profile smoke: span trees + VM profiler over a live server"
# Boots a profiled server (1-in-16 block sampling), drives a looping dp,
# and asserts the three observability surfaces: `mbdctl profile` shows
# the span waterfall with the VM-run span, `--folded` emits non-empty
# folded stacks attributing samples to the dp's entry function, and a
# delegated agent walks the mbdProfile OCP subtree (enterprises.20100.6).
# --slow-ms 1 classifies the multi-ms spin invokes as slow, so they land
# in the always-kept anomaly ring and `mbdctl profile` (latest tree) sees
# the last invoke regardless of the normal reservoir's 1-in-N thinning.
boot_server "$SMOKE_DIR/profile_server.log" --profile-sample 16 --slow-ms 1 --stats 1
echo 'fn main(n) { var t = 0; var i = 0; while (i < n) { t = t + i; i = i + 1; } return t; }' \
    > "$SMOKE_DIR/spin.dpl"
"${MBDCTL[@]}" delegate spin "$SMOKE_DIR/spin.dpl" >/dev/null
PROF_DPI="$("${MBDCTL[@]}" instantiate spin)"
for _ in 1 2 3 4 5; do
    "${MBDCTL[@]}" invoke "$PROF_DPI" main 20000 >/dev/null
done

"${MBDCTL[@]}" profile > "$SMOKE_DIR/profile.txt"
grep -q "ep.vm_run" "$SMOKE_DIR/profile.txt" || {
    echo "profile smoke FAILED: span tree is missing the ep.vm_run span:"
    cat "$SMOKE_DIR/profile.txt"
    exit 1
}
"${MBDCTL[@]}" profile --folded > "$SMOKE_DIR/folded.txt"
grep -Eq "main@[0-9]+ [1-9]" "$SMOKE_DIR/folded.txt" || {
    echo "profile smoke FAILED: no folded stack attributes samples to main:"
    cat "$SMOKE_DIR/folded.txt"
    exit 1
}

sleep 2 # let a --stats tick refresh the OCP tree with the profile rows
echo 'fn count() { return len(mib_walk("1.3.6.1.4.1.20100.6")); }' > "$SMOKE_DIR/pwalker.dpl"
"${MBDCTL[@]}" delegate pwalker "$SMOKE_DIR/pwalker.dpl" >/dev/null
PWALK_DPI="$("${MBDCTL[@]}" instantiate pwalker)"
PROF_ROWS="$("${MBDCTL[@]}" invoke "$PWALK_DPI" count)"
[ "$PROF_ROWS" -gt 0 ] 2>/dev/null || {
    echo "profile smoke FAILED: delegated walk of 20100.6 saw no profile rows (got \`$PROF_ROWS\`)"
    exit 1
}
stop_server
echo "profile smoke ok: $(wc -l < "$SMOKE_DIR/folded.txt") folded stacks, $PROF_ROWS mbdProfile leaves walked"

echo "==> history smoke: metrics history + SLO alerts over a live server"
# Boots a server with a p99 alert rule, a quota-breach burn-rate rule
# and a 3-invocation quota; drives repeated quota breaches via mbdctl
# (resume + invoke re-trips the brake each round, so the breach counter
# rate is comfortably non-zero for the sampler), then asserts the
# surfaces: `mbdctl top --once` renders a firing dashboard, `mbdctl
# metrics` returns retained history (text and --json), the journal has
# the alert fire/clear pair under real trace ids, and a delegated agent
# walks the mbdHistory/mbdAlerts subtree (enterprises.20100.7).
boot_server "$SMOKE_DIR/history_server.log" --stats 1 \
    --history-cap 240 --max-invocations 3 \
    --alert 'rds.verb.invoke.p99>1us:for=1' \
    --alert 'ep.quota_breaches>0:for=1,clear=2'
"${MBDCTL[@]}" delegate smoke "$SMOKE_DIR/work.dpl" >/dev/null
HIST_DPI="$("${MBDCTL[@]}" instantiate smoke)"
for _ in 1 2 3; do
    "${MBDCTL[@]}" invoke "$HIST_DPI" main >/dev/null
done
# Each extra round breaches the cumulative quota again: the brake
# suspends, resume re-arms, the next invoke re-trips.
for _ in 1 2 3 4 5; do
    "${MBDCTL[@]}" invoke "$HIST_DPI" main >/dev/null 2>&1 || true
    "${MBDCTL[@]}" resume "$HIST_DPI" >/dev/null 2>&1 || true
done
sleep 5 # sampler fires the breach rule, then two quiet samples clear it

"${MBDCTL[@]}" top --once > "$SMOKE_DIR/top.txt"
grep -q "mbd top" "$SMOKE_DIR/top.txt" && grep -q "hottest counters" "$SMOKE_DIR/top.txt" || {
    echo "history smoke FAILED: top --once did not render a dashboard:"
    cat "$SMOKE_DIR/top.txt"
    exit 1
}
grep -q "FIRING" "$SMOKE_DIR/top.txt" || {
    echo "history smoke FAILED: no firing alert on the dashboard (p99 rule must fire):"
    cat "$SMOKE_DIR/top.txt"
    exit 1
}
"${MBDCTL[@]}" metrics 'rds.verb.invoke*' --range 300 > "$SMOKE_DIR/metrics.txt"
grep -q "rds.verb.invoke.p99 (quantile" "$SMOKE_DIR/metrics.txt" || {
    echo "history smoke FAILED: metrics returned no retained p99 history:"
    cat "$SMOKE_DIR/metrics.txt"
    exit 1
}
"${MBDCTL[@]}" --json metrics 'rds.verb.invoke*' --range 300 > "$SMOKE_DIR/metrics.json"
grep -q '"name":"rds.verb.invoke.p99"' "$SMOKE_DIR/metrics.json" || {
    echo "history smoke FAILED: metrics --json is missing the p99 series:"
    cat "$SMOKE_DIR/metrics.json"
    exit 1
}
"${MBDCTL[@]}" journal > "$SMOKE_DIR/alert_journal.txt"
grep -Eq "trace=[0-9a-f]{16} principal=server verb=alert.fire .*ep.quota_breaches" \
    "$SMOKE_DIR/alert_journal.txt" || {
    echo "history smoke FAILED: no traced alert.fire for the breach rule in the journal:"
    cat "$SMOKE_DIR/alert_journal.txt"
    exit 1
}
grep -Eq "trace=[0-9a-f]{16} principal=server verb=alert.clear .*ep.quota_breaches" \
    "$SMOKE_DIR/alert_journal.txt" || {
    echo "history smoke FAILED: the breach alert never cleared (hysteresis broken?):"
    cat "$SMOKE_DIR/alert_journal.txt"
    exit 1
}
# Capture to a file before grepping: grep -q quitting on first match
# would SIGPIPE mbdctl mid-print, and pipefail turns that into a
# spurious failure even when the record is present.
"${MBDCTL[@]}" --json journal > "$SMOKE_DIR/alert_journal.json"
grep -q '"verb":"alert.fire"' "$SMOKE_DIR/alert_journal.json" || {
    echo "history smoke FAILED: journal --json is missing the alert.fire record"
    exit 1
}
echo 'fn count() { return len(mib_walk("1.3.6.1.4.1.20100.7")); }' > "$SMOKE_DIR/hwalker.dpl"
"${MBDCTL[@]}" delegate hwalker "$SMOKE_DIR/hwalker.dpl" >/dev/null
HWALK_DPI="$("${MBDCTL[@]}" instantiate hwalker)"
HIST_ROWS="$("${MBDCTL[@]}" invoke "$HWALK_DPI" count)"
[ "$HIST_ROWS" -gt 0 ] 2>/dev/null || {
    echo "history smoke FAILED: delegated walk of 20100.7 saw no history rows (got \`$HIST_ROWS\`)"
    exit 1
}
stop_server
echo "history smoke ok: alert pair journaled, $HIST_ROWS mbdHistory/mbdAlerts leaves walked"

echo "==> telemetry smoke: self-health example"
cargo run --release -q --example self_health > "$SMOKE_DIR/self_health.out"
grep -q "server degraded" "$SMOKE_DIR/self_health.out" || {
    echo "smoke FAILED: self_health example did not raise a degradation event"
    cat "$SMOKE_DIR/self_health.out"
    exit 1
}

echo "==> chaos smoke: seeded fault injection (exactly-once under retries)"
# A fixed-seed fault schedule (every fault kind, dedup replays) driven
# through the retrying client; the example exits non-zero unless the
# workflow converges exactly-once AND the schedule forced at least one
# retry and one dedup replay.
cargo run --release -q --example fault_injection 44 > "$SMOKE_DIR/chaos.out" || {
    echo "chaos smoke FAILED:"
    cat "$SMOKE_DIR/chaos.out"
    exit 1
}
grep -q "chaos ok: exactly-once held" "$SMOKE_DIR/chaos.out" || {
    echo "chaos smoke FAILED: no convergence line:"
    cat "$SMOKE_DIR/chaos.out"
    exit 1
}
grep -E "client retries  : [1-9]" "$SMOKE_DIR/chaos.out" >/dev/null || {
    echo "chaos smoke FAILED: zero retries — schedule did not bite"
    exit 1
}
grep -E "dedup replays   : [1-9]" "$SMOKE_DIR/chaos.out" >/dev/null || {
    echo "chaos smoke FAILED: zero dedup replays — schedule did not bite"
    exit 1
}
echo "chaos smoke ok: $(grep 'chaos ok' "$SMOKE_DIR/chaos.out")"

echo "==> conn smoke: reactor front-end under an idle-connection flood"
# In-process first: 5000 idle connections against a reactor + fixed
# 4-worker tier (the functional witness of the open-connection
# ceiling); the example asserts the gauges directly — all connections
# registered, health accepting, zero sheds, bounded drain — and drives
# every RDS verb under the flood.
cargo run --release -q --example conn_flood 5000 > "$SMOKE_DIR/flood.out" || {
    echo "conn smoke FAILED:"
    cat "$SMOKE_DIR/flood.out"
    exit 1
}
grep -q "conn flood ok" "$SMOKE_DIR/flood.out" || {
    echo "conn smoke FAILED: no convergence line:"
    cat "$SMOKE_DIR/flood.out"
    exit 1
}

# Then against the real binary: a 4-worker mbd-server takes a 3000-
# connection flood, and its own --stats gauges must stay in the
# accepting band.
FLOOD_LOG="$SMOKE_DIR/flood_server.log"
boot_server "$FLOOD_LOG" --workers 4 --max-conns 6000 --stats 1
cargo run --release -q --example conn_flood 3000 "$SERVER_ADDR" \
    > "$SMOKE_DIR/flood_binary.out" || {
    echo "conn smoke FAILED against mbd-server:"
    cat "$SMOKE_DIR/flood_binary.out"
    exit 1
}
sleep 2 # let a --stats tick record the post-flood gauges
stop_server
grep -Eq "rds\.tcp\.health +0" "$FLOOD_LOG" || {
    echo "conn smoke FAILED: health gauge never reported accepting (0):"
    cat "$FLOOD_LOG"
    exit 1
}
if grep -Eq "rds\.tcp\.health +[1-9]" "$FLOOD_LOG"; then
    echo "conn smoke FAILED: health gauge left the accepting band under an idle flood:"
    grep -E "rds\.tcp\.health" "$FLOOD_LOG"
    exit 1
fi
if grep -Eq "rds\.shed +[1-9]" "$FLOOD_LOG"; then
    echo "conn smoke FAILED: idle connections caused request sheds:"
    grep -E "rds\.shed" "$FLOOD_LOG"
    exit 1
fi
echo "conn smoke ok: $(grep 'conn flood ok' "$SMOKE_DIR/flood_binary.out")"

echo "==> vm smoke: E10 hot-path budgets (release-gated)"
# The release-only budget tests assert the shared-code instantiation
# speedup (>= 2x vs the deep-clone reconstruction baseline), the
# warm-vs-cold resolution-cache win, and the dispatch ns/op ceiling.
cargo test --release -q -p mbd-bench --lib e10

echo "==> durability smoke: kill -9 a stateful server, reboot, state survives"
# Boots the real binary with a state directory, delegates a counting
# agent, drives it to 3, terminates a second instance, then SIGKILLs the
# process mid-life. The reboot on the same directory must journal a
# traced recovery record that abandoned nothing, still list the live
# dpi and not the terminated one, and continue the count at 4 — proving
# globals, the id allocator and the dp repository all came back from
# WAL+snapshot, and that a terminated dpi stays gone.
DUR_STATE="$SMOKE_DIR/state"
DUR_LOG="$SMOKE_DIR/durable_server.log"
echo 'var n = 0; fn main() { n = n + 1; return n; }' > "$SMOKE_DIR/counter.dpl"
boot_server "$DUR_LOG" --state-dir "$DUR_STATE"
"${MBDCTL[@]}" delegate counter "$SMOKE_DIR/counter.dpl" >/dev/null
DUR_DPI="$("${MBDCTL[@]}" instantiate counter)"
for want in 1 2 3; do
    GOT="$("${MBDCTL[@]}" invoke "$DUR_DPI" main)"
    [ "$GOT" = "$want" ] || {
        echo "durability smoke FAILED: pre-crash count returned \`$GOT\`, wanted $want"
        exit 1
    }
done
DEAD_DPI="$("${MBDCTL[@]}" instantiate counter)"
"${MBDCTL[@]}" terminate "$DEAD_DPI" >/dev/null
sleep 1 # let group commit flush the staged WAL tail (10 ms) + the 1 Hz sync
stop_server -9
boot_server "$DUR_LOG" --state-dir "$DUR_STATE" # a new port; MBDCTL follows it
# File-then-grep (not a pipe): grep -q quitting early would SIGPIPE
# mbdctl under pipefail.
"${MBDCTL[@]}" instances > "$SMOKE_DIR/dur_instances.txt"
grep -q "^$DUR_DPI	counter" "$SMOKE_DIR/dur_instances.txt" || {
    echo "durability smoke FAILED: rebooted server does not list $DUR_DPI:"
    cat "$SMOKE_DIR/dur_instances.txt"
    exit 1
}
if grep -q "^$DEAD_DPI	" "$SMOKE_DIR/dur_instances.txt"; then
    echo "durability smoke FAILED: terminated $DEAD_DPI came back after the reboot:"
    cat "$SMOKE_DIR/dur_instances.txt"
    exit 1
fi
GOT="$("${MBDCTL[@]}" invoke "$DUR_DPI" main)"
[ "$GOT" = "4" ] || {
    echo "durability smoke FAILED: post-crash count returned \`$GOT\`, wanted 4 (globals lost?)"
    exit 1
}
"${MBDCTL[@]}" journal > "$SMOKE_DIR/recovery_journal.txt"
grep -Eq "trace=[0-9a-f]{16} principal=server verb=recovery .* abandoned=0 " \
    "$SMOKE_DIR/recovery_journal.txt" || {
    echo "durability smoke FAILED: no traced, abandon-free recovery record in the reboot journal:"
    cat "$SMOKE_DIR/recovery_journal.txt"
    exit 1
}
stop_server
echo "durability smoke ok: $DUR_DPI survived kill -9 and counted on ($GOT); $DEAD_DPI stayed gone"

echo "==> idle smoke: one execution tier, and it sleeps"
# `--workers 2` must mean main (which also samples history) + WAL
# flusher + reactor + 2 workers = 5 threads, all blocked while no request
# is in flight: a second worker tier or a polling wait shows here as more
# threads or as hundreds of voluntary context switches per idle second.
# The thread count is gated by the size ledger below, against SIZE.json.
boot_server "$SMOKE_DIR/idle_server.log" --workers 2 --state-dir "$SMOKE_DIR/idle_state"
idle_switches() {
    cat /proc/"$SERVER_PID"/task/*/status | awk '/^voluntary_ctxt_switches/ { n += $2 } END { print n }'
}
sleep 1 # boot work settles
IDLE_THREADS="$(ls /proc/"$SERVER_PID"/task | wc -l)"
IDLE_BEFORE="$(idle_switches)"
sleep 3
IDLE_RATE=$(( ($(idle_switches) - IDLE_BEFORE) / 3 ))
stop_server
[ "$IDLE_RATE" -lt 300 ] || {
    echo "idle smoke FAILED: $IDLE_RATE voluntary context switches per idle second, want < 300"
    exit 1
}
echo "idle smoke ok: $IDLE_THREADS threads, $IDLE_RATE voluntary context switches/s idle"

echo "==> size ledger: no tracked size grew without a reason in SIZE.json"
scripts/size.sh --check "$IDLE_THREADS"

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> clean tree: the run left the working tree as it found it"
diff <(echo "$TREE_BEFORE") <(git status --porcelain) || {
    echo "ci FAILED: the run changed the files above (< before, > after)"
    exit 1
}

echo "ci: all gates passed"
