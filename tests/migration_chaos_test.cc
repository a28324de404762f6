// Chaos harness for online reconfiguration: 8 serving threads hammer a
// versioned registry while a migration loop repeatedly shadow-shreds the
// document into alternating storage configurations with failpoints armed
// probabilistically at every migration site (migrate.shred / migrate.verify
// / migrate.swap). The invariants under fire:
//
//  - every served response succeeds and is bit-identical (as a row
//    multiset) to the DOM evaluator's answer, regardless of which
//    generation the request happened to pin;
//  - failed migrations roll back completely: the registry keeps serving
//    the old version and the next migration starts clean;
//  - plan-cache entries compiled against superseded generations degrade to
//    stale-miss + recompile, never to executing a wrong-catalog plan.
//
// The failpoint firing sequence is a pure function of (seed, hit index)
// and only the single migration thread hits migrate.* sites, so the
// success/rollback pattern replays deterministically. `tools/check.sh
// --tsan` runs the suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "mapping/mapping.h"
#include "obs/obs.h"
#include "pschema/pschema.h"
#include "serving/migrator.h"
#include "serving/retry.h"
#include "serving/server.h"
#include "storage/db_registry.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/schema_parser.h"

namespace legodb::serving {
namespace {

// `info` is a nested element, so Normalize / AllOutlined / AllInlined
// yield genuinely different relational layouts (inlined columns vs. an
// outlined child table with FK joins) — exactly what a migration swaps.
constexpr char kSchemaText[] =
    "type P = p[ C* ] "
    "type C = c[ name[ String ], "
    "info[ size[ Integer ], rating[ Integer ]? ] ]";

xml::Document MakeDocument(int n) {
  std::string text = "<p>";
  for (int i = 0; i < n; ++i) {
    text += "<c><name>n" + std::to_string(i % 40) + "</name><info><size>" +
            std::to_string(i) + "</size>";
    if (i % 3 != 0) {
      text += "<rating>" + std::to_string(i % 10) + "</rating>";
    }
    text += "</info></c>";
  }
  text += "</p>";
  auto doc = xml::ParseDocument(text);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

struct Case {
  std::string text;
  std::map<std::string, Value> params;
};

// Scalar-return queries only: their results are configuration-independent
// (the cross-config equivalence property), so every generation must answer
// them identically.
std::vector<Case> WorkloadCases() {
  return {
      {"FOR $v IN document(\"d\")/p/c WHERE $v/name = \"n3\" "
       "RETURN $v/info/size",
       {}},
      {"FOR $v IN document(\"d\")/p/c WHERE $v/info/size < 50 "
       "RETURN $v/name",
       {}},
      {"FOR $v IN document(\"d\")/p/c WHERE $v/name = c1 "
       "RETURN $v/info/rating",
       {{"c1", Value::Str("n7")}}},
      {"FOR $v IN document(\"d\")/p/c RETURN $v/name", {}},
  };
}

class MigrationChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = xs::ParseSchema(kSchemaText);
    ASSERT_TRUE(schema.ok());
    configs_ = {ps::Normalize(schema.value()),
                ps::AllOutlined(schema.value()),
                ps::AllInlined(schema.value())};
    doc_ = std::make_unique<xml::Document>(MakeDocument(400));

    auto mapping = map::MapSchema(configs_[0]);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    auto mapping_ptr =
        std::make_shared<map::Mapping>(std::move(mapping).value());
    auto db = std::make_shared<store::Database>(mapping_ptr->catalog());
    ASSERT_TRUE(store::ShredDocument(*doc_, *mapping_ptr, db.get()).ok());
    registry_ = std::make_unique<store::DbRegistry>(mapping_ptr, db);

    for (const Case& c : WorkloadCases()) {
      auto query = xq::ParseQuery(c.text);
      ASSERT_TRUE(query.ok());
      auto expected = xq::EvaluateOnDocument(query.value(), *doc_, c.params);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      expected_.push_back(std::move(expected).value());
    }
  }

  std::vector<MigrationQuery> MigrationWorkload() const {
    std::vector<MigrationQuery> workload;
    int i = 0;
    for (const Case& c : WorkloadCases()) {
      workload.push_back({"q" + std::to_string(i++), c.text});
    }
    return workload;
  }

  std::vector<xs::Schema> configs_;
  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<store::DbRegistry> registry_;
  std::vector<xq::ResultSet> expected_;
};

TEST_F(MigrationChaosTest, ServingStaysBitIdenticalUnderMigrationFire) {
  QueryServer server(registry_.get());
  ASSERT_TRUE(server.Prewarm().ok());
  std::vector<Case> cases = WorkloadCases();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0};
  std::atomic<int> failures{0}, mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        size_t k = static_cast<size_t>(t + i) % cases.size();
        RequestOptions request;
        request.params = cases[k].params;
        auto response = server.Serve(cases[k].text, request);
        if (!response.ok()) {
          ++failures;
        } else if (!expected_[k].SameRows(response->result)) {
          ++mismatches;
        }
        ++served;
      }
    });
  }

  // Migration loop: alternate outlined/inlined targets with every
  // migration site armed probabilistically. The workload params must bind
  // c1 for the parameterized verification query.
  MigrationOptions options;
  options.params = {{"c1", Value::Str("n7")}};
  Migrator migrator(registry_.get(), doc_.get());
  std::vector<MigrationQuery> workload = MigrationWorkload();
  int successes = 0, rollbacks = 0;
  {
    fp::ScopedFailpoints failpoints(
        "migrate.shred=p0.4@1;migrate.verify=p0.3@2;migrate.swap=p0.3@3");
    ASSERT_TRUE(failpoints.status().ok());
    for (int i = 0; i < 24; ++i) {
      const xs::Schema& target = configs_[1 + (i % 2)];
      auto report = migrator.MigrateTo(target, workload, options);
      if (report.ok()) {
        ++successes;
        EXPECT_EQ(report->verified_queries, workload.size());
        EXPECT_EQ(report->skipped_queries, 0u);
      } else {
        // Only injected faults can fail here; rollback leaves the old
        // generation serving.
        EXPECT_EQ(report.status().code(), Status::Code::kInternal)
            << report.status().ToString();
        ++rollbacks;
      }
    }
  }
  // With p in {0.3, 0.4} per site over 24 runs, both outcomes occur in any
  // plausible deterministic sequence.
  EXPECT_GT(successes, 0);
  EXPECT_GT(rollbacks, 0);

  // Let the serving fleet overlap plenty of post-migration traffic before
  // stopping (bounded by a wall-clock cap so the test cannot hang).
  int64_t deadline = obs::NowNanos() + 2'000'000'000LL;
  while (served.load() < 4000 && obs::NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(served.load(), 0);
  // Successful migrations bumped the generation, so cached plans from
  // earlier generations must have degraded to stale recompiles (never to
  // wrong results, per the mismatch count above).
  PlanCache::Stats stats = server.CacheStats();
  EXPECT_GT(stats.stale, 0);
  EXPECT_EQ(registry_->generation(), 1u + static_cast<uint64_t>(successes));
}

TEST_F(MigrationChaosTest, EveryFailpointSiteRollsBackCleanly) {
  QueryServer server(registry_.get());
  ASSERT_TRUE(server.Prewarm().ok());
  MigrationOptions options;
  options.params = {{"c1", Value::Str("n7")}};
  Migrator migrator(registry_.get(), doc_.get());
  std::vector<MigrationQuery> workload = MigrationWorkload();
  std::vector<Case> cases = WorkloadCases();

  for (const char* site : {"migrate.shred", "migrate.verify", "migrate.swap"}) {
    fp::ScopedFailpoints failpoints(site);
    ASSERT_TRUE(failpoints.status().ok());
    auto report = migrator.MigrateTo(configs_[1], workload, options);
    ASSERT_FALSE(report.ok()) << site;
    EXPECT_EQ(report.status().code(), Status::Code::kInternal) << site;
    EXPECT_NE(report.status().message().find(site), std::string::npos)
        << report.status().ToString();
    // Rollback contract: generation unchanged, serving still correct.
    EXPECT_EQ(registry_->generation(), 1u) << site;
    for (size_t k = 0; k < cases.size(); ++k) {
      RequestOptions request;
      request.params = cases[k].params;
      auto response = server.Serve(cases[k].text, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(expected_[k].SameRows(response->result));
      EXPECT_EQ(response->generation, 1u);
    }
  }

  // Disarmed: the same migration commits, and cached generation-1 plans
  // recompile as stale misses with identical answers.
  auto report = migrator.MigrateTo(configs_[1], workload, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->from_generation, 1u);
  EXPECT_EQ(report->to_generation, 2u);
  EXPECT_EQ(report->verified_queries, workload.size());
  int64_t stale_before = server.CacheStats().stale;
  for (size_t k = 0; k < cases.size(); ++k) {
    RequestOptions request;
    request.params = cases[k].params;
    auto response = server.Serve(cases[k].text, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->cache_hit);  // stale entry forced a recompile
    EXPECT_EQ(response->generation, 2u);
    EXPECT_TRUE(expected_[k].SameRows(response->result));
  }
  EXPECT_EQ(server.CacheStats().stale,
            stale_before + static_cast<int64_t>(cases.size()));
}

TEST_F(MigrationChaosTest, ConcurrentMigrationsAreSerializedGracefully) {
  MigrationOptions options;
  options.params = {{"c1", Value::Str("n7")}};
  Migrator migrator(registry_.get(), doc_.get());
  std::vector<MigrationQuery> workload = MigrationWorkload();

  // Fire several MigrateTo calls at once: exactly the winners of the
  // try-lock run (>= 1); the rest bounce with Unavailable — the retry
  // layer's cue, never a crash or a half-applied swap.
  std::atomic<int> ok{0}, unavailable{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto report =
          migrator.MigrateTo(configs_[1 + (t % 2)], workload, options);
      if (report.ok()) {
        ++ok;
      } else if (report.status().code() == Status::Code::kUnavailable) {
        ++unavailable;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok + unavailable, 4);
  EXPECT_EQ(registry_->generation(), 1u + static_cast<uint64_t>(ok.load()));
}

}  // namespace
}  // namespace legodb::serving
