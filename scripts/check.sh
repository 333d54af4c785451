#!/usr/bin/env bash
# Full local gate. Stages run cheapest-first so the common failures
# surface before the expensive ones:
#
#   1. cargo fmt --check        — formatting (seconds, catches most noise)
#   2. cargo build --release    — tier-1 build, plus server/client bins
#   3. cargo test -q            — tier-1 tests (root package)
#   4. cargo test --workspace   — every crate's unit + integration tests
#   5. tier-1 under the witness — the same tests with
#                                 INSIGHTNOTES_LOCK_WITNESS=1: the
#                                 parking_lot shim checks every
#                                 classified acquisition against
#                                 locks.toml at runtime
#   6. insight-lint             — workspace invariant checker (lock/WAL/
#                                 panic discipline; see DESIGN.md §11);
#                                 a HARD gate: any non-baselined finding
#                                 fails the run
#   7. cargo clippy -D warnings — style lints over all targets
#   8. benchmark --all --quick  — every benchmark workload end to end
#                                 (the embedded one-shard ones included),
#                                 failing on any output digest or
#                                 crash-recovery check
#   9. insightd smoke tests     — end-to-end wire-protocol round-trip,
#                                 then kill -9 crash recovery at one
#                                 shard and at four (--shards 1 / 4),
#                                 then an annotation-lifecycle
#                                 curation round-trip (annotate → flag →
#                                 correct → kill -9 → recover → HISTORY
#                                 → retract), then WAL-shipping replication
#                                 (primary + replica, read-your-writes,
#                                 kill -9 the replica, resubscribe),
#                                 then a high-concurrency flood (≥1k
#                                 pipelined connections against the
#                                 reactor, mixed reads/writes, clean
#                                 SIGTERM drain under load)
#
# `./scripts/check.sh --fix-baseline` skips the gates and regenerates
# lint.toml from the current findings instead (kept empty by policy:
# fix violations rather than baselining them).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix-baseline" ]]; then
  exec cargo run -q -p lint -- --fix-baseline
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p insightnotes-server -p insightnotes-client"
cargo build --release -p insightnotes-server -p insightnotes-client

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test -q (tier-1, INSIGHTNOTES_LOCK_WITNESS=1)"
# Same tier-1 suite with the runtime lock witness armed: every
# classified mutex/rwlock acquisition is checked against the locks.toml
# hierarchy on the live thread and panics (with both acquisition
# locations) on an inversion the static rules could only approximate.
INSIGHTNOTES_LOCK_WITNESS=1 cargo test -q

echo "==> insight-lint (workspace invariants)"
cargo run -q -p lint --

echo "==> cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> benchmark --all --quick"
# Exits non-zero on any failed result digest or crash-recovery check.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --all --quick

echo "==> insightd smoke test"
# Spawn the daemon on an ephemeral port, drive one query and one
# annotation write through insight-cli over the wire, shut it down
# cleanly, and check the final snapshot set (`<snapshot>.shard0`) was
# written.
SMOKE_DIR="$(mktemp -d)"
SNAPSHOT="$SMOKE_DIR/smoke.indb"
LOG="$SMOKE_DIR/insightd.log"
cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill "$SERVER_PID" 2>/dev/null || true
  [[ -n "${REPLICA_PID:-}" ]] && kill "$REPLICA_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

./target/release/insightd --addr 127.0.0.1:0 --snapshot "$SNAPSHOT" --shards 1 >"$LOG" 2>&1 &
SERVER_PID=$!

# The daemon prints "insightd listening on HOST:PORT" once bound.
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^insightd listening on //p' "$LOG" | head -n1)"
  [[ -n "$ADDR" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG"; echo "insightd exited early"; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" ]] || { cat "$LOG"; echo "insightd never reported its address"; exit 1; }

./target/release/insight-cli --addr "$ADDR" \
  "CREATE TABLE birds (id INT, name TEXT)" \
  "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Whooper Swan')" \
  "ADD ANNOTATION 'smoke test observation' AUTHOR 'check' ON birds WHERE id = 1" \
  "SELECT id, name FROM birds"

# Batched ingest round-trip: two statements in one AnnotateBatch frame,
# committed as one group; both must come back acknowledged.
BATCH_OUT="$(./target/release/insight-cli --addr "$ADDR" --batch \
  "ADD ANNOTATION 'batched note one' AUTHOR 'check' ON birds WHERE id = 1" \
  "ADD ANNOTATION 'batched note two' AUTHOR 'check' ON birds WHERE id = 2")"
echo "$BATCH_OUT"
[[ "$(grep -c 'attached to 1 row' <<<"$BATCH_OUT")" -eq 2 ]] || {
  echo "batched ingest did not acknowledge both annotations"; exit 1;
}

./target/release/insight-cli --addr "$ADDR" ".shutdown"

wait "$SERVER_PID"
SERVER_PID=""
[[ -s "$SNAPSHOT.shard0" ]] || { cat "$LOG"; echo "no snapshot written on shutdown"; exit 1; }

echo "==> insightd crash-recovery smoke test"
# Durability round-trip: start with a write-ahead log, ingest an acked
# batch, kill -9 the daemon (no shutdown handler, no snapshot), restart
# against the same WAL dir, and check the acked annotations survived
# into the recovered state via a snapshot written on graceful shutdown.
WAL_DIR="$SMOKE_DIR/wal"
CRASH_SNAPSHOT="$SMOKE_DIR/crash.indb"
CRASH_LOG="$SMOKE_DIR/insightd-crash.log"
mkdir -p "$WAL_DIR"

spawn_walled() {
  # --shards 1 pins one shard regardless of core count.
  ./target/release/insightd --addr 127.0.0.1:0 --snapshot "$CRASH_SNAPSHOT" \
    --wal-dir "$WAL_DIR" --sync batch --shards 1 >"$CRASH_LOG" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^insightd listening on //p' "$CRASH_LOG" | head -n1)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$CRASH_LOG"; echo "insightd exited early"; exit 1; }
    sleep 0.1
  done
  [[ -n "$ADDR" ]] || { cat "$CRASH_LOG"; echo "insightd never reported its address"; exit 1; }
}

spawn_walled
./target/release/insight-cli --addr "$ADDR" \
  "CREATE TABLE birds (id INT, name TEXT)" \
  "INSERT INTO birds VALUES (1, 'Swan Goose')" >/dev/null
CRASH_BATCH="$(./target/release/insight-cli --addr "$ADDR" --batch \
  "ADD ANNOTATION 'survives kill dash nine' AUTHOR 'check' ON birds WHERE id = 1" \
  "ADD ANNOTATION 'also survives' AUTHOR 'check' ON birds WHERE id = 1")"
[[ "$(grep -c 'attached to 1 row' <<<"$CRASH_BATCH")" -eq 2 ]] || {
  echo "crash smoke: batch was not fully acknowledged"; exit 1;
}

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[[ ! -s "$CRASH_SNAPSHOT.shard0" ]] || { echo "crash smoke: unexpected snapshot before recovery"; exit 1; }

spawn_walled
grep -q 'recovery:' "$CRASH_LOG" || { cat "$CRASH_LOG"; echo "crash smoke: no recovery report"; exit 1; }
# The recovered server must still serve the acked annotations: a third
# write and a read both work, and the post-recovery snapshot carries
# all three annotations.
POST_OUT="$(./target/release/insight-cli --addr "$ADDR" \
  "ADD ANNOTATION 'written after recovery' AUTHOR 'check' ON birds WHERE id = 1")"
grep -q 'attached to 1 row' <<<"$POST_OUT" || {
  echo "crash smoke: write after recovery failed"; exit 1;
}
./target/release/insight-cli --addr "$ADDR" ".shutdown"
wait "$SERVER_PID"
SERVER_PID=""
[[ -s "$CRASH_SNAPSHOT.shard0" ]] || { cat "$CRASH_LOG"; echo "crash smoke: no snapshot on shutdown"; exit 1; }
for needle in 'survives kill dash nine' 'also survives' 'written after recovery'; do
  grep -q "$needle" "$CRASH_SNAPSHOT.shard0" || {
    echo "crash smoke: acked annotation '$needle' missing from recovered state"; exit 1;
  }
done

echo "==> insightd sharded crash-recovery smoke test (--shards 4)"
# Same kill -9 round-trip on the shard-per-core layout: acked writes are
# spread across four shard WAL segments, the restart must replay every
# segment and report per-shard recovery, and the graceful shutdown must
# write one snapshot per shard.
SHARD_WAL_DIR="$SMOKE_DIR/wal-sharded"
SHARD_SNAPSHOT="$SMOKE_DIR/sharded.indb"
SHARD_LOG="$SMOKE_DIR/insightd-sharded.log"
mkdir -p "$SHARD_WAL_DIR"

spawn_sharded() {
  ./target/release/insightd --addr 127.0.0.1:0 --snapshot "$SHARD_SNAPSHOT" \
    --wal-dir "$SHARD_WAL_DIR" --sync batch --shards 4 >"$SHARD_LOG" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^insightd listening on //p' "$SHARD_LOG" | head -n1)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$SHARD_LOG"; echo "insightd exited early"; exit 1; }
    sleep 0.1
  done
  [[ -n "$ADDR" ]] || { cat "$SHARD_LOG"; echo "insightd never reported its address"; exit 1; }
}

spawn_sharded
./target/release/insight-cli --addr "$ADDR" \
  "CREATE TABLE birds (id INT, name TEXT)" \
  "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Whooper Swan'), (3, 'Mute Swan'), \
   (4, 'Trumpeter Swan'), (5, 'Tundra Swan'), (6, 'Black Swan')" >/dev/null
SHARD_BATCH="$(./target/release/insight-cli --addr "$ADDR" --batch \
  "ADD ANNOTATION 'sharded survivor one' AUTHOR 'check' ON birds WHERE id = 1" \
  "ADD ANNOTATION 'sharded survivor two' AUTHOR 'check' ON birds WHERE id = 2" \
  "ADD ANNOTATION 'sharded survivor three' AUTHOR 'check' ON birds WHERE id = 3" \
  "ADD ANNOTATION 'sharded survivor four' AUTHOR 'check' ON birds WHERE id = 4" \
  "ADD ANNOTATION 'sharded survivor five' AUTHOR 'check' ON birds WHERE id = 5" \
  "ADD ANNOTATION 'sharded survivor six' AUTHOR 'check' ON birds WHERE id = 6")"
[[ "$(grep -c 'attached to 1 row' <<<"$SHARD_BATCH")" -eq 6 ]] || {
  echo "sharded smoke: batch was not fully acknowledged"; exit 1;
}

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[[ -s "$SHARD_WAL_DIR/MANIFEST" ]] || { echo "sharded smoke: no shard manifest"; exit 1; }
for k in 0 1 2 3; do
  [[ -d "$SHARD_WAL_DIR/shard-$k" ]] || { echo "sharded smoke: missing WAL segment dir shard-$k"; exit 1; }
done

spawn_sharded
grep -q 'recovery: shard 0:' "$SHARD_LOG" || { cat "$SHARD_LOG"; echo "sharded smoke: no per-shard recovery report"; exit 1; }
grep -q 'across 4 shard(s)' "$SHARD_LOG" || { cat "$SHARD_LOG"; echo "sharded smoke: no shard-count summary"; exit 1; }
POST_OUT="$(./target/release/insight-cli --addr "$ADDR" \
  "ADD ANNOTATION 'sharded after recovery' AUTHOR 'check' ON birds WHERE id = 4")"
grep -q 'attached to 1 row' <<<"$POST_OUT" || {
  echo "sharded smoke: write after recovery failed"; exit 1;
}
./target/release/insight-cli --addr "$ADDR" ".shutdown"
wait "$SERVER_PID"
SERVER_PID=""
for k in 0 1 2 3; do
  [[ -s "$SHARD_SNAPSHOT.shard$k" ]] || { cat "$SHARD_LOG"; echo "sharded smoke: missing shard snapshot .shard$k"; exit 1; }
done
for needle in 'sharded survivor one' 'sharded survivor two' 'sharded survivor three' \
              'sharded survivor four' 'sharded survivor five' 'sharded survivor six' \
              'sharded after recovery'; do
  grep -q "$needle" "$SHARD_SNAPSHOT".shard* || {
    echo "sharded smoke: acked annotation '$needle' missing from recovered state"; exit 1;
  }
done

echo "==> insightd curation smoke test (lifecycle + kill -9 + HISTORY)"
# Annotation lifecycle end to end on the sharded layout: annotate, flag,
# correct, kill -9 the daemon, recover from the WAL, and check the
# replayed timeline via HISTORY plus a post-recovery RETRACT of the
# correction's successor.
CUR_WAL_DIR="$SMOKE_DIR/wal-curation"
CUR_LOG="$SMOKE_DIR/insightd-curation.log"
mkdir -p "$CUR_WAL_DIR"

spawn_curation() {
  ./target/release/insightd --addr 127.0.0.1:0 \
    --wal-dir "$CUR_WAL_DIR" --sync batch --shards 2 >"$CUR_LOG" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^insightd listening on //p' "$CUR_LOG" | head -n1)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$CUR_LOG"; echo "insightd exited early"; exit 1; }
    sleep 0.1
  done
  [[ -n "$ADDR" ]] || { cat "$CUR_LOG"; echo "insightd never reported its address"; exit 1; }
}

spawn_curation
CUR_OUT="$(./target/release/insight-cli --addr "$ADDR" \
  "CREATE TABLE birds (id INT, name TEXT)" \
  "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Whooper Swan')" \
  "ADD ANNOTATION 'molting observed' AUTHOR 'check' ON birds WHERE id = 1" \
  "FLAG ANNOTATION 1 'needs review'" \
  "CORRECT ANNOTATION 1 'molting confirmed on recheck' AUTHOR 'check'")"
grep -q 'annotation a1 flagged' <<<"$CUR_OUT" || { echo "curation smoke: flag not acknowledged: $CUR_OUT"; exit 1; }
grep -q 'annotation a1 corrected by a2' <<<"$CUR_OUT" || { echo "curation smoke: correction not acknowledged: $CUR_OUT"; exit 1; }

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

spawn_curation
grep -q 'recovery:' "$CUR_LOG" || { cat "$CUR_LOG"; echo "curation smoke: no recovery report"; exit 1; }
# The timeline replayed from the WAL: creation, the flag (with its
# note), and the correction with its successor link.
HIST_OUT="$(./target/release/insight-cli --addr "$ADDR" "HISTORY ANNOTATION 1")"
echo "$HIST_OUT"
grep -q 'created' <<<"$HIST_OUT" || { echo "curation smoke: HISTORY lost the creation"; exit 1; }
grep -q 'flagged (needs review)' <<<"$HIST_OUT" || { echo "curation smoke: HISTORY lost the flag"; exit 1; }
grep -q 'corrected -> #2' <<<"$HIST_OUT" || { echo "curation smoke: HISTORY lost the correction"; exit 1; }
# The successor is live and curatable after recovery.
RETRACT_OUT="$(./target/release/insight-cli --addr "$ADDR" "RETRACT ANNOTATION 2")"
grep -q 'annotation a2 retracted' <<<"$RETRACT_OUT" || { echo "curation smoke: post-recovery retract failed: $RETRACT_OUT"; exit 1; }
./target/release/insight-cli --addr "$ADDR" ".shutdown" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""

echo "==> insightd replication smoke test (primary + replica)"
# WAL-shipping replication end to end: a replica bootstraps from a live
# primary, the CLI's --replica routing gives read-your-writes, writes on
# the replica are rejected, and after kill -9 the replica resumes from
# its local mirrored log and resubscribes without diverging.
REPL_WAL_DIR="$SMOKE_DIR/wal-primary"
REPL_DIR="$SMOKE_DIR/replica"
PRIMARY_LOG="$SMOKE_DIR/insightd-primary.log"
REPLICA_LOG="$SMOKE_DIR/insightd-replica.log"
mkdir -p "$REPL_WAL_DIR"

./target/release/insightd --addr 127.0.0.1:0 --wal-dir "$REPL_WAL_DIR" \
  --sync batch --shards 2 >"$PRIMARY_LOG" 2>&1 &
SERVER_PID=$!
PRIMARY_ADDR=""
for _ in $(seq 1 100); do
  PRIMARY_ADDR="$(sed -n 's/^insightd listening on //p' "$PRIMARY_LOG" | head -n1)"
  [[ -n "$PRIMARY_ADDR" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$PRIMARY_LOG"; echo "primary exited early"; exit 1; }
  sleep 0.1
done
[[ -n "$PRIMARY_ADDR" ]] || { cat "$PRIMARY_LOG"; echo "primary never reported its address"; exit 1; }

./target/release/insight-cli --addr "$PRIMARY_ADDR" \
  "CREATE TABLE birds (id INT, name TEXT)" \
  "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Whooper Swan')" \
  "CREATE SUMMARY INSTANCE K TYPE CLUSTER THRESHOLD 0.5" \
  "LINK SUMMARY K TO birds" \
  "ADD ANNOTATION 'pre-replica note' AUTHOR 'check' ON birds WHERE id = 1" >/dev/null

spawn_replica() {
  # Truncate first: a stale "listening on" line from a previous run
  # would otherwise win the scrape before the new one is printed.
  : >"$REPLICA_LOG"
  ./target/release/insightd --addr 127.0.0.1:0 --replica-of "$PRIMARY_ADDR" \
    --replica-dir "$REPL_DIR" >>"$REPLICA_LOG" 2>&1 &
  REPLICA_PID=$!
  REPLICA_ADDR=""
  for _ in $(seq 1 100); do
    REPLICA_ADDR="$(sed -n 's/^insightd listening on //p' "$REPLICA_LOG" | tail -n1)"
    [[ -n "$REPLICA_ADDR" ]] && break
    kill -0 "$REPLICA_PID" 2>/dev/null || { cat "$REPLICA_LOG"; echo "replica exited early"; exit 1; }
    sleep 0.1
  done
  [[ -n "$REPLICA_ADDR" ]] || { cat "$REPLICA_LOG"; echo "replica never reported its address"; exit 1; }
}

spawn_replica

# Read-your-writes through the CLI's --replica routing: the write goes
# to the primary, the CLI waits for the replica to apply it, and the
# SELECT is served by the replica.
ROUTED_OUT="$(./target/release/insight-cli --addr "$PRIMARY_ADDR" --replica "$REPLICA_ADDR" \
  "ADD ANNOTATION 'routed note' AUTHOR 'check' ON birds WHERE id = 2" \
  "SELECT id, name FROM birds WHERE id = 2")"
grep -q 'attached to 1 row' <<<"$ROUTED_OUT" || { echo "replication smoke: routed write failed"; exit 1; }
grep -q 'Whooper Swan' <<<"$ROUTED_OUT" || { echo "replication smoke: routed read failed"; exit 1; }

# The replica serves the same rows and summaries as the primary (QID
# header lines differ per server and are stripped).
PRIMARY_VIEW="$(./target/release/insight-cli --addr "$PRIMARY_ADDR" "SELECT id, name FROM birds" | tail -n +2)"
REPLICA_VIEW="$(./target/release/insight-cli --addr "$REPLICA_ADDR" "SELECT id, name FROM birds" | tail -n +2)"
[[ "$PRIMARY_VIEW" == "$REPLICA_VIEW" ]] || {
  echo "replication smoke: replica diverged from primary"
  echo "primary: $PRIMARY_VIEW"; echo "replica: $REPLICA_VIEW"; exit 1;
}

# Writes on the replica are rejected with the structured class.
REJECT_OUT="$(./target/release/insight-cli --addr "$REPLICA_ADDR" \
  "ADD ANNOTATION 'must not land' AUTHOR 'check' ON birds WHERE id = 1")"
grep -q 'read-only replica' <<<"$REJECT_OUT" || {
  echo "replication smoke: replica accepted a write: $REJECT_OUT"; exit 1;
}

# kill -9 the replica mid-stream; a write lands on the primary while the
# replica is down; the restarted replica resumes from its mirrored log,
# resubscribes, and catches up.
kill -9 "$REPLICA_PID"
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
./target/release/insight-cli --addr "$PRIMARY_ADDR" \
  "ADD ANNOTATION 'written while replica down' AUTHOR 'check' ON birds WHERE id = 1" >/dev/null
spawn_replica
grep -q 'resuming from local state' "$REPLICA_LOG" || {
  cat "$REPLICA_LOG"; echo "replication smoke: restarted replica did not resume"; exit 1;
}
ROUTED_OUT="$(./target/release/insight-cli --addr "$PRIMARY_ADDR" --replica "$REPLICA_ADDR" \
  "ADD ANNOTATION 'after resubscribe' AUTHOR 'check' ON birds WHERE id = 2" \
  "SELECT id, name FROM birds")"
grep -q 'attached to 1 row' <<<"$ROUTED_OUT" || { echo "replication smoke: post-restart write failed"; exit 1; }
PRIMARY_VIEW="$(./target/release/insight-cli --addr "$PRIMARY_ADDR" "SELECT id, name FROM birds" | tail -n +2)"
REPLICA_VIEW="$(./target/release/insight-cli --addr "$REPLICA_ADDR" "SELECT id, name FROM birds" | tail -n +2)"
[[ "$PRIMARY_VIEW" == "$REPLICA_VIEW" ]] || {
  echo "replication smoke: replica diverged after resubscribe"
  echo "primary: $PRIMARY_VIEW"; echo "replica: $REPLICA_VIEW"; exit 1;
}
./target/release/insight-cli --addr "$REPLICA_ADDR" ".shutdown" >/dev/null
wait "$REPLICA_PID"
REPLICA_PID=""
./target/release/insight-cli --addr "$PRIMARY_ADDR" ".shutdown" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""

echo "==> insightd high-concurrency smoke test (pipelined flood)"
# The reactor's whole point is thousands of connections per process;
# exercise it with a flood of pipelined sessions rather than the
# handful the other smokes use. Each side of the flood lives in its
# own process (insightd / insight-cli), so each needs CONNS fds plus
# headroom. Raise the soft fd limit toward the hard limit if we can,
# then size the flood to what the limit actually allows instead of
# failing on tight environments.
ulimit -n 16384 2>/dev/null || ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
NOFILE="$(ulimit -n)"
FLOOD_CONNS=1000
if [[ "$NOFILE" != "unlimited" && "$NOFILE" -lt 1512 ]]; then
  FLOOD_CONNS=$(( NOFILE - 512 ))
  echo "flood smoke: fd limit $NOFILE, scaling down to $FLOOD_CONNS connections"
fi
FLOOD_SNAPSHOT="$SMOKE_DIR/flood.indb"
FLOOD_LOG="$SMOKE_DIR/insightd-flood.log"

./target/release/insightd --addr 127.0.0.1:0 --snapshot "$FLOOD_SNAPSHOT" >"$FLOOD_LOG" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^insightd listening on //p' "$FLOOD_LOG" | head -n1)"
  [[ -n "$ADDR" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$FLOOD_LOG"; echo "insightd exited early"; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" ]] || { cat "$FLOOD_LOG"; echo "insightd never reported its address"; exit 1; }

./target/release/insight-cli --addr "$ADDR" \
  "CREATE TABLE birds (id INT, name TEXT)" \
  "INSERT INTO birds VALUES (1, 'Swan Goose'), (2, 'Whooper Swan')" >/dev/null

# FLOOD_CONNS simultaneous pipelined connections, 16 requests in flight
# on each, cycling a mixed read/annotate workload; --flood exits
# nonzero if any connection fails to open or any request errors.
FLOOD_OUT="$(./target/release/insight-cli --addr "$ADDR" --flood "$FLOOD_CONNS" --depth 16 \
  "SELECT id, name FROM birds WHERE id = 1" \
  "ADD ANNOTATION 'flood note' AUTHOR 'check' ON birds WHERE id = 2" \
  "SELECT id, name FROM birds WHERE id = 2")"
echo "$FLOOD_OUT"
grep -q ", 0 failed" <<<"$FLOOD_OUT" || { echo "flood smoke: requests failed"; exit 1; }

# Clean drain under load: SIGTERM while a second flood is mid-flight
# must still exit 0 with a final snapshot (acked writes drained, not
# dropped on the floor).
./target/release/insight-cli --addr "$ADDR" --flood "$FLOOD_CONNS" --depth 16 \
  "ADD ANNOTATION 'draining note' AUTHOR 'check' ON birds WHERE id = 1" >/dev/null &
FLOOD_PID=$!
sleep 0.2
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { cat "$FLOOD_LOG"; echo "flood smoke: unclean exit on SIGTERM"; exit 1; }
SERVER_PID=""
wait "$FLOOD_PID" 2>/dev/null || true  # the drained flood may see the close; that's fine
[[ -s "$FLOOD_SNAPSHOT.manifest" ]] || { cat "$FLOOD_LOG"; echo "flood smoke: no snapshot on SIGTERM"; exit 1; }
grep -q 'flood note' "$FLOOD_SNAPSHOT".shard* || {
  echo "flood smoke: acked flood annotations missing from snapshot"; exit 1;
}

echo "OK"
