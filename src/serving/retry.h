#ifndef LEGODB_SERVING_RETRY_H_
#define LEGODB_SERVING_RETRY_H_

// Bounded retry with exponential backoff and deterministic jitter for the
// serving layer's load-shedding path.
//
// QueryServer::Serve answers Status::Unavailable in exactly two transient
// situations: the in-flight bound is hit (admission control) or a
// migration holds a resource it will soon release. Both clear on their
// own, so the right client behaviour is to back off briefly and retry a
// bounded number of times — not to drop the request and not to hammer the
// server in a tight loop.
//
// The backoff for attempt k is initial_backoff_ms * multiplier^k, capped
// at max_backoff_ms, then scaled by a jitter factor in [0.5, 1.0) derived
// from common::Mix64 over (seed, attempt). The jitter decorrelates competing
// clients (they stop retrying in lockstep) while staying a pure function
// of (seed, attempt) — a fixed seed replays the same backoff schedule
// bit-for-bit, which the chaos harness relies on.
//
// Every other status — including DeadlineExceeded and Cancelled, where the
// caller explicitly gave up — returns immediately without retrying.
//
// The request's wall-clock budget is one absolute deadline across ALL
// attempts: the loop resolves the budget (request override or server
// default) once before the first Serve and passes each attempt only the
// time remaining, so a retried request can never restart its clock. When
// the next backoff would sleep through the deadline, the loop returns
// DeadlineExceeded immediately instead of sleeping into a doomed retry.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "serving/server.h"

namespace legodb::serving {

struct RetryPolicy {
  // Total attempts including the first; values < 1 behave as 1 (no retry).
  int max_attempts = 4;
  double initial_backoff_ms = 0.2;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 20.0;
  // Seed of the deterministic jitter stream; give each client thread its
  // own seed so their schedules decorrelate.
  uint64_t seed = 0;
};

// What the retry loop actually did, for reporting.
struct RetryStats {
  int attempts = 0;      // Serve calls issued (>= 1)
  int retries = 0;       // attempts - 1
  double backoff_ms = 0; // total time slept between attempts
};

// Jittered backoff before retry `attempt` (0-based count of failures so
// far), in milliseconds. Pure function of (policy, attempt).
double BackoffMs(const RetryPolicy& policy, int attempt);

// Serves `query_text`, retrying on Status::Unavailable per `policy`.
// Returns the first non-Unavailable outcome, or the last Unavailable once
// attempts are exhausted. `stats` (optional) accumulates across calls.
StatusOr<Response> ServeWithRetry(QueryServer* server,
                                  const std::string& query_text,
                                  const RequestOptions& request,
                                  const RetryPolicy& policy,
                                  RetryStats* stats = nullptr);

}  // namespace legodb::serving

#endif  // LEGODB_SERVING_RETRY_H_
