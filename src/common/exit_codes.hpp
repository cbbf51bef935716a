// Process exit codes shared by every tool in tools/ (lgg_sim, lgg_chaos,
// lgg_region).  lgg_inspect links no library, so it does not include this
// header; it keeps 0 (valid), 1 (invalid) and 2 (usage or I/O error).
//
// CI and the chaos-soak executor triage a finished run from its exit code
// alone — no log parsing — so the codes form a stable, documented contract
// (docs/chaos.md "Exit codes"):
//
//   0  ok            — run completed, all armed checks passed
//   1  diverged      — P_t diverged (stability verdict or divergence bound)
//   2  usage error   — bad flags, unreadable input, internal error
//   3  violation     — an invariant oracle fired (conservation, R-bound,
//                      Lemma-1 bounds, checkpoint round-trip, contract)
//   4  timeout       — wall-clock deadline exceeded, killed by the
//                      watchdog, or interrupted by SIGINT/SIGTERM
//   5  recovery      — the self-healing supervisor exhausted its recovery
//      exhausted       budget (or found no valid checkpoint generation to
//                      roll back to); the run is not resumable as-is
//
// 2 deliberately matches the historical "usage" exit code so existing
// wrappers keep working; 1 keeps lgg_sim's historical "diverging" code.
#pragma once

namespace lgg {

inline constexpr int kExitOk = 0;
inline constexpr int kExitDiverged = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitViolation = 3;
inline constexpr int kExitTimeout = 4;
inline constexpr int kExitRecoveryExhausted = 5;

}  // namespace lgg
