#!/usr/bin/env bash
# Kill-at-random-instant smoke for the crash-tolerant orchestration stack.
#
# For each scheduled kill instant, a supervised chain-checkpointed lgg_sim
# run is SIGKILLed from inside (failpoint action=abort — no unwind, no
# flushing, a power cut at that syscall), restarted with --recover, and
# the recovered run's telemetry stream, generation ring, and manifest are
# compared byte-for-byte against a run that was never interrupted.  Any
# difference is a crash-safety bug; the non-identical artifacts are left
# in the output directory for triage (CI uploads them).
#
# Hotspot analytics ride along, and the checkpoint interval is not a
# multiple of the snapshot interval, so every checkpoint lands mid-window
# and a recovery must carry the pending hotspot window to match.
#
# usage: crash_kill_loop.sh LGG_SIM LGG_INSPECT NETWORK.SDNET OUT_DIR
set -u

SIM=${1:?usage: crash_kill_loop.sh LGG_SIM LGG_INSPECT NET OUT}
INSPECT=${2:?missing lgg_inspect path}
NET=${3:?missing network file}
OUT=${4:?missing output directory}

STEPS=400
EVERY=45
TELEMETRY_EVERY=10
GENS=3
SEED=7

rm -rf "$OUT"
mkdir -p "$OUT/ref"

run_leg() {
  # run_leg DIR [extra lgg_sim args...]
  local dir=$1
  shift
  "$SIM" --steps "$STEPS" --seed "$SEED" --loss 0.1 \
         --checkpoint "$dir/run.ckpt" --checkpoint-every "$EVERY" \
         --generations "$GENS" \
         --telemetry "$dir/telemetry.jsonl" --telemetry-every "$TELEMETRY_EVERY" \
         --hotspots 4 \
         "$@" "$NET" > "$dir/stdout.txt" 2>&1
}

if ! run_leg "$OUT/ref"; then
  echo "FAIL: reference run failed"
  cat "$OUT/ref/stdout.txt"
  exit 1
fi

# One kill instant per durability stage of the chain, plus mid-telemetry.
SPECS="
ckpt.write:at=2,action=abort
ckpt.fsync:at=4,action=abort
ckpt.rename:at=3,action=abort
manifest.write:at=1,action=abort
manifest.fsync:at=5,action=abort
manifest.rename:at=2,action=abort
telemetry.append:at=13,action=abort
"

fail=0
for spec in $SPECS; do
  dir="$OUT/kill-$(printf '%s' "$spec" | tr ':,=' '___')"
  mkdir -p "$dir"
  run_leg "$dir" --failpoints "$spec"
  rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "FAIL: $spec: expected SIGKILL (exit 137), got $rc"
    fail=1
    continue
  fi
  if ! run_leg "$dir" --recover; then
    echo "FAIL: $spec: recovery run failed"
    cat "$dir/stdout.txt"
    fail=1
    continue
  fi
  leg_ok=1
  for artifact in telemetry.jsonl run.ckpt.manifest; do
    if ! cmp -s "$OUT/ref/$artifact" "$dir/$artifact"; then
      echo "FAIL: $spec: $artifact differs from the uninterrupted run"
      leg_ok=0
    fi
  done
  for gen in "$OUT"/ref/run.ckpt.gen*; do
    base=$(basename "$gen")
    if ! cmp -s "$gen" "$dir/$base"; then
      echo "FAIL: $spec: $base differs from the uninterrupted run"
      leg_ok=0
    fi
  done
  if ! "$INSPECT" telemetry "$dir/telemetry.jsonl" > /dev/null; then
    echo "FAIL: $spec: recovered telemetry fails validation"
    leg_ok=0
  fi
  if [ "$leg_ok" -eq 1 ]; then
    echo "ok: $spec"
  else
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "crash-kill-loop: FAILED (artifacts in $OUT)"
  exit 1
fi
echo "crash-kill-loop: OK"
