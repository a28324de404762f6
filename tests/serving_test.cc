// Unit and concurrency tests for the serving layer: lexical
// canonicalization (literal -> parameter extraction, fingerprint sharing,
// collision resistance), the sharded LRU plan cache (hits, eviction at
// capacity, fingerprint-collision downgrade), admission control and
// request budgets, the cache-path failpoint, and bit-identical results
// cached vs. uncached under 8-thread concurrent serving (the test the
// --tsan runner leans on).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "engine/executor.h"
#include "mapping/mapping.h"
#include "obs/obs.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "serving/canonicalize.h"
#include "serving/plan_cache.h"
#include "serving/retry.h"
#include "serving/server.h"
#include "storage/db_registry.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/parser.h"
#include "xquery/parser.h"
#include "xschema/schema_parser.h"

namespace legodb::serving {
namespace {

// --- Canonicalization ------------------------------------------------------

TEST(Canonicalize, ComparisonLiteralsBecomeParameters) {
  CanonicalQuery a = Canonicalize(
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"alpha\" "
      "RETURN $v/name");
  CanonicalQuery b = Canonicalize(
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"omega\" "
      "RETURN $v/name");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.bindings.size(), 1u);
  ASSERT_EQ(b.bindings.size(), 1u);
  EXPECT_EQ(a.bindings.begin()->second, Value::Str("alpha"));
  EXPECT_EQ(b.bindings.begin()->second, Value::Str("omega"));
}

TEST(Canonicalize, NumberLiteralsAfterRangeOps) {
  CanonicalQuery a = Canonicalize(
      "FOR $v IN document(\"d\")/p/c WHERE $v/size > 10 RETURN $v/name");
  CanonicalQuery b = Canonicalize(
      "FOR $v IN document(\"d\")/p/c WHERE $v/size > 250 RETURN $v/name");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.bindings.size(), 1u);
  EXPECT_EQ(a.bindings.begin()->second, Value::Int(10));
  EXPECT_EQ(b.bindings.begin()->second, Value::Int(250));
}

TEST(Canonicalize, DocumentNameStaysLiteral) {
  // The document("...") string follows "(" — not a comparison position — so
  // it must survive canonicalization verbatim and produce no binding.
  CanonicalQuery c =
      Canonicalize("FOR $v IN document(\"d\")/p/c RETURN $v/name");
  EXPECT_NE(c.text.find("\"d\""), std::string::npos);
  EXPECT_TRUE(c.bindings.empty());
}

TEST(Canonicalize, SymbolicParamsAreIdentity) {
  CanonicalQuery c = Canonicalize(
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = c1 RETURN $v/name");
  EXPECT_TRUE(c.bindings.empty());
  EXPECT_NE(c.text.find("c1"), std::string::npos);
}

TEST(Canonicalize, FingerprintCollisionResistance) {
  // 1000 structurally distinct parameterized queries must all land on
  // distinct fingerprints (and literal variants of each must not add any).
  std::set<uint64_t> fps;
  size_t n = 0;
  for (int v = 0; v < 250; ++v) {
    for (const char* col : {"name", "size"}) {
      for (const char* op : {"=", "<"}) {
        std::string text = "FOR $v" + std::to_string(v) +
                           " IN document(\"d\")/p/c WHERE $v" +
                           std::to_string(v) + "/" + col + " " + op +
                           " \"k\" RETURN $v" + std::to_string(v) + "/" + col;
        fps.insert(Canonicalize(text).fingerprint);
        ++n;
        // A different literal must NOT mint a new fingerprint.
        std::string variant = text;
        variant.replace(variant.find("\"k\""), 3, "\"other\"");
        fps.insert(Canonicalize(variant).fingerprint);
      }
    }
  }
  EXPECT_EQ(fps.size(), n);
}

// --- Plan cache ------------------------------------------------------------

std::shared_ptr<const PreparedPlan> DummyPlan(const std::string& text) {
  auto plan = std::make_shared<PreparedPlan>();
  plan->canonical_text = text;
  plan->fingerprint = common::HashString(text);
  return plan;
}

TEST(PlanCache, HitMissAndLruEvictionAtCapacity) {
  PlanCache cache(/*shards=*/1, /*capacity_per_shard=*/2);
  auto a = DummyPlan("a"), b = DummyPlan("b"), c = DummyPlan("c");
  EXPECT_EQ(cache.Find(a->fingerprint, "a", 0), nullptr);
  cache.Insert(a);
  cache.Insert(b);
  EXPECT_NE(cache.Find(a->fingerprint, "a", 0), nullptr);  // a now MRU
  cache.Insert(c);                                      // evicts b (LRU)
  EXPECT_EQ(cache.Find(b->fingerprint, "b", 0), nullptr);
  EXPECT_NE(cache.Find(a->fingerprint, "a", 0), nullptr);
  EXPECT_NE(cache.Find(c->fingerprint, "c", 0), nullptr);

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
}

TEST(PlanCache, FingerprintCollisionDegradesToMiss) {
  PlanCache cache(4, 4);
  auto a = DummyPlan("a");
  cache.Insert(a);
  // Same fingerprint, different canonical text: must not serve a's plan.
  EXPECT_EQ(cache.Find(a->fingerprint, "not-a", 0), nullptr);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.collisions, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);
}

TEST(PlanCache, ReinsertReplacesWithoutGrowth) {
  PlanCache cache(1, 4);
  cache.Insert(DummyPlan("a"));
  cache.Insert(DummyPlan("a"));
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0);
}

// --- Admission control -----------------------------------------------------

TEST(AdmissionController, BoundsInflightRequests) {
  AdmissionController ac(2);
  EXPECT_TRUE(ac.TryAdmit());
  EXPECT_TRUE(ac.TryAdmit());
  EXPECT_FALSE(ac.TryAdmit());
  EXPECT_EQ(ac.inflight(), 2u);
  ac.Release();
  EXPECT_TRUE(ac.TryAdmit());
  ac.Release();
  ac.Release();
  EXPECT_EQ(ac.inflight(), 0u);
}

TEST(AdmissionController, ZeroMeansUnboundedButCounted) {
  AdmissionController ac(0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ac.TryAdmit());
  EXPECT_EQ(ac.inflight(), 100u);
}

#ifndef NDEBUG
TEST(AdmissionControllerDeathTest, ReleaseWithoutAdmitIsCaught) {
  // An unpaired Release would wrap the unsigned in-flight counter and
  // silently disable admission control; the DCHECK must trip instead.
  AdmissionController ac(2);
  EXPECT_DEATH(ac.Release(), "Release without admit");
}
#endif

// --- Retry policy ----------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicJitteredAndCapped) {
  RetryPolicy policy;
  policy.seed = 42;
  double nominal = policy.initial_backoff_ms;
  for (int attempt = 0; attempt < 12; ++attempt) {
    double capped = std::min(nominal, policy.max_backoff_ms);
    double b = BackoffMs(policy, attempt);
    // Jitter factor lives in [0.5, 1.0) of the capped nominal backoff.
    EXPECT_GE(b, 0.5 * capped) << attempt;
    EXPECT_LT(b, capped) << attempt;
    // Pure function of (policy, attempt): replays bit-for-bit.
    EXPECT_EQ(b, BackoffMs(policy, attempt)) << attempt;
    nominal *= policy.backoff_multiplier;
  }
  // A different seed decorrelates the schedule.
  RetryPolicy other = policy;
  other.seed = 43;
  bool any_differ = false;
  for (int attempt = 0; attempt < 12; ++attempt) {
    any_differ |= BackoffMs(policy, attempt) != BackoffMs(other, attempt);
  }
  EXPECT_TRUE(any_differ);
}

// --- End-to-end serving ----------------------------------------------------

// Fixture: Parent/Child tables shredded from a generated document, plus an
// uncached reference path (fresh parse/translate/optimize/execute).
class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = xs::ParseSchema(
        "type P = p[ C* ] "
        "type C = c[ name[ String ], size[ Integer ]? ]");
    ASSERT_TRUE(schema.ok());
    auto mapping = map::MapSchema(ps::Normalize(schema.value()));
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    mapping_ = std::make_unique<map::Mapping>(std::move(mapping).value());
    db_ = std::make_unique<store::Database>(mapping_->catalog());
    std::string text = "<p>";
    for (int i = 0; i < 200; ++i) {
      text += "<c><name>n" + std::to_string(i % 40) + "</name><size>" +
              std::to_string(i) + "</size></c>";
    }
    text += "</p>";
    auto doc = xml::ParseDocument(text);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(store::ShredDocument(doc.value(), *mapping_, db_.get()).ok());
  }

  std::unique_ptr<QueryServer> MakeServer(ServerOptions options = {}) {
    auto server =
        std::make_unique<QueryServer>(db_.get(), mapping_.get(), options);
    EXPECT_TRUE(server->Prewarm().ok());
    return server;
  }

  xq::ResultSet Uncached(const std::string& text,
                         const std::map<std::string, Value>& params = {}) {
    auto q = xq::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto rq = xlat::TranslateQuery(q.value(), *mapping_);
    EXPECT_TRUE(rq.ok()) << rq.status().ToString();
    opt::Optimizer optimizer(mapping_->catalog());
    auto planned = optimizer.PlanQuery(rq.value());
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    std::vector<opt::PhysicalPlanPtr> plans;
    for (const auto& b : planned->blocks) plans.push_back(b.plan);
    engine::Executor exec(db_.get(), params);
    auto result = exec.ExecuteQuery(rq.value(), plans);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<map::Mapping> mapping_;
  std::unique_ptr<store::Database> db_;
};

TEST_F(ServingTest, HitSkipsFrontEndAndMatchesUncached) {
  auto server = MakeServer();
  const std::string q =
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n7\" RETURN $v/size";
  xq::ResultSet expected = Uncached(q);
  ASSERT_FALSE(expected.rows.empty());

  auto miss = server->Serve(q);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_TRUE(miss->result.rows == expected.rows);

  auto hit = server->Serve(q);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(hit->result.rows == expected.rows);

  PlanCache::Stats stats = server->CacheStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST_F(ServingTest, LiteralVariantsShareOneCachedPlan) {
  auto server = MakeServer();
  for (const char* name : {"n1", "n2", "n3", "n17"}) {
    std::string q = "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"" +
                    std::string(name) + "\" RETURN $v/size";
    auto response = server->Serve(q);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->result.rows == Uncached(q).rows);
  }
  PlanCache::Stats stats = server->CacheStats();
  EXPECT_EQ(stats.misses, 1);  // first literal compiled the shared entry
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ServingTest, SymbolicParamsBindPerRequest) {
  auto server = MakeServer();
  const std::string q =
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = c1 RETURN $v/size";
  for (const char* name : {"n5", "n9"}) {
    RequestOptions request;
    request.params = {{"c1", Value::Str(name)}};
    auto response = server->Serve(q, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->result.rows == Uncached(q, request.params).rows);
    ASSERT_FALSE(response->result.rows.empty());
  }
  EXPECT_EQ(server->CacheStats().hits, 1);
}

TEST_F(ServingTest, UnboundParameterIsGracefullyRejected) {
  auto server = MakeServer();
  const std::string q =
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = c1 RETURN $v/size";
  auto response = server->Serve(q);  // no c1 binding
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().message().find("unbound query parameter"),
            std::string::npos)
      << response.status().ToString();
  // And the cached entry (the miss still compiled one) serves a bound
  // request fine afterwards.
  RequestOptions request;
  request.params = {{"c1", Value::Str("n5")}};
  EXPECT_TRUE(server->Serve(q, request).ok());
}

TEST_F(ServingTest, RequestBudgetDeadline) {
  ServerOptions options;
  options.request_budget_ms = 1e-9;  // expires before execution starts
  auto server = MakeServer(options);
  const std::string q =
      "FOR $v IN document(\"d\")/p/c RETURN $v/name";
  auto response = server->Serve(q);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
  // A per-request override of 0 disables the deadline.
  RequestOptions request;
  request.budget_ms = 0;
  EXPECT_TRUE(server->Serve(q, request).ok());
}

TEST_F(ServingTest, CacheLookupFailpoint) {
  auto server = MakeServer();
  const std::string q =
      "FOR $v IN document(\"d\")/p/c RETURN $v/name";
  {
    fp::ScopedFailpoints failpoints("serving.cache_lookup");
    ASSERT_TRUE(failpoints.status().ok());
    auto response = server->Serve(q);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), Status::Code::kInternal);
  }
  EXPECT_TRUE(server->Serve(q).ok());  // disarmed: back to normal
}

TEST_F(ServingTest, OverloadedServerRejectsGracefully) {
  ServerOptions options;
  options.max_inflight = 1;
  auto server = MakeServer(options);
  const std::string q =
      "FOR $v IN document(\"d\")/p/c RETURN $v/name";
  ASSERT_TRUE(server->Serve(q).ok());  // warm the cache serially
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto response = server->Serve(q);
        if (response.ok()) {
          ++ok;
        } else if (response.status().code() == Status::Code::kUnavailable) {
          ++overloaded;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every request either succeeded or was shed with Unavailable — nothing
  // crashed, hung, or failed with an unexpected code.
  EXPECT_EQ(ok + overloaded, 400);
  EXPECT_EQ(other, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(server->inflight(), 0u);
}

TEST_F(ServingTest, ConcurrentServingIsBitIdentical) {
  auto server = MakeServer();
  struct Case {
    std::string text;
    std::map<std::string, Value> params;
  };
  std::vector<Case> cases = {
      {"FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n3\" "
       "RETURN $v/size",
       {}},
      {"FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n21\" "
       "RETURN $v/size",
       {}},
      {"FOR $v IN document(\"d\")/p/c WHERE $v/name = c1 RETURN $v/size",
       {{"c1", Value::Str("n11")}}},
      {"FOR $v IN document(\"d\")/p/c RETURN $v/name", {}},
  };
  std::vector<xq::ResultSet> expected;
  for (const Case& c : cases) expected.push_back(Uncached(c.text, c.params));

  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        size_t k = static_cast<size_t>(t + i) % cases.size();
        RequestOptions request;
        request.params = cases[k].params;
        auto response = server->Serve(cases[k].text, request);
        if (!response.ok()) {
          ++failures;
        } else if (!(response->result.rows == expected[k].rows)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(mismatches, 0);
  PlanCache::Stats stats = server->CacheStats();
  EXPECT_EQ(stats.collisions, 0);
  EXPECT_GT(stats.HitRate(), 0.9);
}

TEST_F(ServingTest, PrewarmBuildsColumnShadows) {
  // PrewarmColumns is what QueryServer::Prewarm runs; standalone it must be
  // idempotent and OK on a loaded database.
  EXPECT_TRUE(db_->PrewarmColumns().ok());
  EXPECT_TRUE(db_->PrewarmColumns().ok());
}

// --- Generations and cancellation ------------------------------------------

TEST_F(ServingTest, StalePlanCacheHitRecompilesAfterPublish) {
  // Wrap the fixture database in a registry so a new generation can be
  // published underneath the server (the same physical data is fine: the
  // point is the generation tag, not the layout).
  std::shared_ptr<const map::Mapping> mapping(mapping_.get(),
                                              [](const map::Mapping*) {});
  std::shared_ptr<store::Database> db(db_.get(), [](store::Database*) {});
  store::DbRegistry registry(mapping, db);
  QueryServer server(&registry);
  ASSERT_TRUE(server.Prewarm().ok());

  const std::string q =
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n7\" RETURN $v/size";
  xq::ResultSet expected = Uncached(q);

  auto miss = server.Serve(q);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(miss->generation, 1u);

  auto hit = server.Serve(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);

  registry.Publish(mapping, db);  // generation 1 -> 2

  // The cached plan was compiled against generation 1: the lookup must
  // degrade to a stale miss + recompile, never serve the old plan.
  auto stale = server.Serve(q);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_FALSE(stale->cache_hit);
  EXPECT_EQ(stale->generation, 2u);
  EXPECT_TRUE(stale->result.rows == expected.rows);
  PlanCache::Stats stats = server.CacheStats();
  EXPECT_EQ(stats.stale, 1);
  EXPECT_EQ(stats.misses, 2);

  // The recompiled entry is a first-class hit at the new generation.
  auto rehit = server.Serve(q);
  ASSERT_TRUE(rehit.ok());
  EXPECT_TRUE(rehit->cache_hit);
  EXPECT_EQ(rehit->generation, 2u);
}

TEST_F(ServingTest, PreCancelledTokenIsRejectedBeforeExecution) {
  auto server = MakeServer();
  const std::string q = "FOR $v IN document(\"d\")/p/c RETURN $v/name";
  ASSERT_TRUE(server->Serve(q).ok());  // warm the cache

  common::CancelToken token;
  token.Cancel();
  RequestOptions request;
  request.cancel = &token;
  auto response = server->Serve(q, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kCancelled);
  EXPECT_NE(response.status().message().find("before execution"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_EQ(server->inflight(), 0u);  // the admission slot was released

  // A fresh (uncancelled) token serves normally.
  common::CancelToken fresh;
  request.cancel = &fresh;
  EXPECT_TRUE(server->Serve(q, request).ok());
}

TEST_F(ServingTest, ServeWithRetryPassesThroughTerminalOutcomes) {
  auto server = MakeServer();
  const std::string q = "FOR $v IN document(\"d\")/p/c RETURN $v/name";
  RetryPolicy policy;
  RetryStats stats;

  // Immediate success: one attempt, no sleeping.
  auto response = ServeWithRetry(server.get(), q, {}, policy, &stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.backoff_ms, 0);

  // Non-retryable failure (Internal from the cache failpoint): returned
  // immediately, no retries burned.
  fp::ScopedFailpoints failpoints("serving.cache_lookup=1+");
  ASSERT_TRUE(failpoints.status().ok());
  stats = RetryStats();
  response = ServeWithRetry(server.get(), q, {}, policy, &stats);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kInternal);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
}

TEST_F(ServingTest, ServeWithRetryHonorsOneAbsoluteDeadline) {
  ServerOptions options;
  options.max_inflight = 1;
  auto server = MakeServer(options);
  const std::string q = "FOR $v IN document(\"d\")/p/c RETURN $v/name";
  ASSERT_TRUE(server->Serve(q).ok());  // warm the cache serially

  // Occupy the only admission slot for the whole test so every attempt is
  // shed with Unavailable — the retryable outcome.
  ASSERT_TRUE(server->admission_for_test().TryAdmit());

  // The budget, not the attempt count, must stop the loop. The old loop
  // re-derived the deadline from budget_ms on every attempt (restarting the
  // clock) and slept full backoffs even when the budget could not survive
  // them, so this configuration retried for minutes.
  RetryPolicy policy;
  policy.max_attempts = 1000000;
  policy.initial_backoff_ms = 5.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 1000.0;
  RetryStats stats;
  RequestOptions request;
  request.budget_ms = 20;  // one absolute deadline across ALL attempts
  int64_t start_ns = obs::NowNanos();
  auto response = ServeWithRetry(server.get(), q, request, policy, &stats);
  double elapsed_ms = (obs::NowNanos() - start_ns) / 1e6;
  server->admission_for_test().Release();

  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
  // Generous wall-clock bound: the 20 ms budget plus scheduler slack. The
  // broken loop needed max_attempts * backoff, far beyond this.
  EXPECT_LT(elapsed_ms, 2000.0);
  // The loop never sleeps past the deadline, so total backoff stays under
  // the budget (jitter included).
  EXPECT_LT(stats.backoff_ms, 40.0);
  EXPECT_GE(stats.attempts, 1);

  // With the slot free again the same request succeeds within its budget.
  auto ok = ServeWithRetry(server.get(), q, request, policy, &stats);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServingTest, PreparedPlanStalenessIsDetectedAfterTableMutation) {
  auto server = MakeServer();
  const std::string q =
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n7\" RETURN $v/size";
  ASSERT_TRUE(server->Serve(q).ok());  // compiles + caches the prepared plan

  // Mutate the backing table out from under the cached prepared programs:
  // Insert clears the index/column registries, dangling the resolved
  // pointers the prepared state holds.
  store::StoredTable& table = db_->table(mapping_->catalog().IndexOf("C"));
  auto row = table.ReadRow(0);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(table.Insert(std::move(row).value()).ok());

  // The executor must refuse the stale prepared state (naming the table)
  // instead of chasing freed pointers.
  auto response = server->Serve(q);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kInternal);
  EXPECT_NE(
      response.status().message().find("prepared plan is stale: table 'C'"),
      std::string::npos)
      << response.status().ToString();

  // A fresh prepare against the mutated table serves normally.
  auto fresh = MakeServer();
  EXPECT_TRUE(fresh->Serve(q).ok());
}

// --- Deadlines and cancellation during execution ---------------------------

// A table large enough that a vector-at-a-time scan takes comfortably
// longer than the budgets below; batch_size=1 maximizes interrupt-check
// granularity (one check per row).
class SlowScanTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 60000;

  void SetUp() override {
    auto schema = xs::ParseSchema(
        "type P = p[ C* ] "
        "type C = c[ name[ String ], size[ Integer ]? ]");
    ASSERT_TRUE(schema.ok());
    auto mapping = map::MapSchema(ps::Normalize(schema.value()));
    ASSERT_TRUE(mapping.ok());
    mapping_ = std::make_unique<map::Mapping>(std::move(mapping).value());
    db_ = std::make_unique<store::Database>(mapping_->catalog());
    std::string text = "<p>";
    for (int i = 0; i < kRows; ++i) {
      text += "<c><name>n" + std::to_string(i % 997) + "</name><size>" +
              std::to_string(i) + "</size></c>";
    }
    text += "</p>";
    auto doc = xml::ParseDocument(text);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(store::ShredDocument(doc.value(), *mapping_, db_.get()).ok());
    ASSERT_TRUE(db_->PrewarmColumns().ok());
  }

  // The scan query: a selective filter that still visits every row.
  const std::string query_ =
      "FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n13\" RETURN $v/size";

  StatusOr<xq::ResultSet> Execute(const engine::ExecOptions& exec_options) {
    LEGODB_ASSIGN_OR_RETURN(xq::Query q, xq::ParseQuery(query_));
    LEGODB_ASSIGN_OR_RETURN(opt::RelQuery rq,
                            xlat::TranslateQuery(q, *mapping_));
    opt::Optimizer optimizer(mapping_->catalog());
    LEGODB_ASSIGN_OR_RETURN(opt::PlannedQuery planned, optimizer.PlanQuery(rq));
    std::vector<opt::PhysicalPlanPtr> plans;
    for (const auto& b : planned.blocks) plans.push_back(b.plan);
    engine::Executor exec(db_.get(), {}, exec_options);
    return exec.ExecuteQuery(rq, plans);
  }

  std::unique_ptr<map::Mapping> mapping_;
  std::unique_ptr<store::Database> db_;
};

TEST_F(SlowScanTest, ExecutorStopsAtExpiredDeadlineDuringExecution) {
  engine::ExecOptions exec_options;
  exec_options.batch_size = 1;
  exec_options.deadline_ns = obs::NowNanos() - 1;  // already expired
  auto result = Execute(exec_options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("during execution"),
            std::string::npos)
      << result.status().ToString();
  // Without the deadline the same execution completes.
  exec_options.deadline_ns = 0;
  EXPECT_TRUE(Execute(exec_options).ok());
}

TEST_F(SlowScanTest, ExecutorStopsAtCancelledTokenDuringExecution) {
  common::CancelToken token;
  token.Cancel();
  engine::ExecOptions exec_options;
  exec_options.batch_size = 1;
  exec_options.cancel = &token;
  auto result = Execute(exec_options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCancelled);
  EXPECT_NE(result.status().message().find("during execution"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(SlowScanTest, ServeDeadlineFiresDuringExecutionNotBefore) {
  ServerOptions options;
  options.exec.batch_size = 1;  // one interrupt check per row
  QueryServer server(db_.get(), mapping_.get(), options);
  ASSERT_TRUE(server.Prewarm().ok());
  ASSERT_TRUE(server.Serve(query_).ok());  // warm the cache, no deadline

  // On a cache hit the front end is microseconds, so a 0.5 ms budget
  // survives it — but a 60k-row tuple-at-a-time scan cannot finish in
  // 0.5 ms, so the deadline must fire *during* execution.
  RequestOptions request;
  request.budget_ms = 0.5;
  auto response = server.Serve(query_, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_NE(response.status().message().find("during execution"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_EQ(server.inflight(), 0u);
}

TEST_F(SlowScanTest, ServeWithRetryRidesOutTransientOverload) {
  ServerOptions options;
  options.max_inflight = 1;
  options.exec.batch_size = 1;
  QueryServer server(db_.get(), mapping_.get(), options);
  ASSERT_TRUE(server.Prewarm().ok());
  ASSERT_TRUE(server.Serve(query_).ok());  // warm the cache serially

  // One slow request occupies the single admission slot; a retrying
  // client must back off until the slot frees instead of failing.
  std::thread occupant([&] { EXPECT_TRUE(server.Serve(query_).ok()); });
  while (server.inflight() == 0) std::this_thread::yield();

  RetryPolicy policy;
  policy.max_attempts = 4000;  // bounded, but far beyond the occupant's time
  policy.initial_backoff_ms = 0.1;
  policy.backoff_multiplier = 1.0;
  policy.seed = 7;
  RetryStats stats;
  auto response = ServeWithRetry(&server, query_, {}, policy, &stats);
  occupant.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GE(stats.attempts, 1);
  EXPECT_EQ(stats.retries, stats.attempts - 1);
  if (stats.retries > 0) {
    EXPECT_GT(stats.backoff_ms, 0);
  }
  EXPECT_EQ(server.inflight(), 0u);
}

}  // namespace
}  // namespace legodb::serving
