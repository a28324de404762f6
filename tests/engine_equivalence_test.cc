// Pipelined-vs-reference executor equivalence: across the fig10 (lookup +
// publish), fig13 (union-distribution), and fig14 (repetition) workload
// queries, the batched pipelined Executor must return *bit-identical*
// ResultSets to the seed materializing ReferenceExecutor — same labels,
// same rows, same row order — at every batch size, and when many executors
// serve the same Database concurrently (run under --tsan to check the
// index registry's synchronization).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <thread>

#include "engine/executor.h"
#include "engine/prepared.h"
#include "engine/reference_executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "obs/obs.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"

namespace legodb {
namespace {

// The union of the fig10 (Q8, Q9, Q11-Q13 lookup; Q15-Q17 publish), fig13
// (Q4-Q7, Q13, Q16, Q19), and fig14 (aka lookup, Q16) workload queries.
struct WorkloadQuery {
  const char* name;
  std::string text;
};

std::vector<WorkloadQuery> WorkloadQueries() {
  std::vector<WorkloadQuery> queries;
  for (const char* name : {"Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q11", "Q12",
                           "Q13", "Q15", "Q16", "Q17", "Q19"}) {
    queries.push_back({name, imdb::QueryText(name)});
  }
  queries.push_back({"aka_lookup",
                     R"(FOR $v IN document("imdbdata")/imdb/show
                        WHERE $v/title = c1
                        RETURN $v/aka)"});
  return queries;
}

// One prepared query: translated and planned against the shared mapping.
struct PreparedQuery {
  std::string name;
  opt::RelQuery rq;
  std::vector<opt::PhysicalPlanPtr> plans;
};

class ExecutorEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto schema = imdb::Schema();
    ASSERT_TRUE(schema.ok());
    auto stats = imdb::Stats();
    ASSERT_TRUE(stats.ok());
    xs::Schema config =
        ps::AllInlined(xs::AnnotateSchema(schema.value(), stats.value()));
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    mapping_ = new map::Mapping(std::move(mapping).value());

    imdb::ImdbScale scale;
    scale.shows = 80;
    scale.directors = 30;
    scale.actors = 60;
    scale.seed = 99;
    doc_ = new xml::Document(imdb::Generate(scale));

    opt::Optimizer optimizer(mapping_->catalog());
    prepared_ = new std::vector<PreparedQuery>();
    for (const WorkloadQuery& wq : WorkloadQueries()) {
      auto query = xq::ParseQuery(wq.text);
      ASSERT_TRUE(query.ok()) << wq.name << ": "
                              << query.status().ToString();
      auto rq = xlat::TranslateQuery(query.value(), *mapping_);
      ASSERT_TRUE(rq.ok()) << wq.name << ": " << rq.status().ToString();
      auto planned = optimizer.PlanQuery(rq.value());
      ASSERT_TRUE(planned.ok()) << wq.name << ": "
                                << planned.status().ToString();
      PreparedQuery p;
      p.name = wq.name;
      p.rq = std::move(rq).value();
      for (const auto& b : planned->blocks) p.plans.push_back(b.plan);
      prepared_->push_back(std::move(p));
    }
  }

  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
    delete doc_;
    doc_ = nullptr;
    delete mapping_;
    mapping_ = nullptr;
  }

  // A freshly shredded database (per test, so index-registry state starts
  // empty and concurrent tests exercise lazy builds).
  std::unique_ptr<store::Database> FreshDatabase() {
    auto db = std::make_unique<store::Database>(mapping_->catalog());
    EXPECT_TRUE(store::ShredDocument(*doc_, *mapping_, db.get()).ok());
    return db;
  }

  // Same document on the paged backend, with a pool small enough that the
  // workload actually faults and evicts. Disk tests compare against a
  // separate memory database shredded from the same document.
  std::unique_ptr<store::Database> FreshDiskDatabase() {
    auto db = std::make_unique<store::Database>(
        mapping_->catalog(),
        store::StorageOptions::Paged(/*page_size=*/1024, /*pool_pages=*/4));
    EXPECT_TRUE(store::ShredDocument(*doc_, *mapping_, db.get()).ok());
    EXPECT_TRUE(db->paged());
    return db;
  }

  static std::map<std::string, Value> Params() {
    return {{"c1", Value::Str("title1")},
            {"c2", Value::Str("title2")},
            {"c4", Value::Str("person3")}};
  }

  // Executes every prepared query with the reference executor, appending
  // each query's ExecStats to `stats` when given.
  static std::vector<xq::ResultSet> ReferenceResults(
      store::Database* db, std::vector<engine::ExecStats>* stats = nullptr) {
    std::vector<xq::ResultSet> results;
    for (const PreparedQuery& p : *prepared_) {
      engine::ReferenceExecutor exec(db, Params());
      auto r = exec.ExecuteQuery(p.rq, p.plans);
      EXPECT_TRUE(r.ok()) << p.name << ": " << r.status().ToString();
      results.push_back(std::move(r).value());
      if (stats != nullptr) stats->push_back(exec.stats());
    }
    return results;
  }

  static void ExpectIdentical(const xq::ResultSet& expected,
                              const xq::ResultSet& actual,
                              const std::string& context) {
    EXPECT_EQ(expected.labels, actual.labels) << context;
    ASSERT_EQ(expected.rows.size(), actual.rows.size()) << context;
    for (size_t i = 0; i < expected.rows.size(); ++i) {
      ASSERT_EQ(expected.rows[i].size(), actual.rows[i].size())
          << context << " row " << i;
      for (size_t j = 0; j < expected.rows[i].size(); ++j) {
        EXPECT_TRUE(expected.rows[i][j] == actual.rows[i][j])
            << context << " row " << i << " col " << j << ": "
            << expected.rows[i][j].ToString() << " vs "
            << actual.rows[i][j].ToString();
      }
    }
  }

  // How a run is watched or fed: profiled, under an ambient registry,
  // and/or from a caller-compiled PreparedPrograms (the serving path).
  struct Mode {
    bool profile = false, registry = false, prepared = false;
    std::string Name() const {
      return " profile=" + std::to_string(profile) + " registry=" +
             std::to_string(registry) + " prepared=" + std::to_string(prepared);
    }
  };

  // Every prepared query's ExecStats and profile from one executor run at
  // `batch_size` in `mode`.
  struct Watched {
    std::vector<engine::ExecStats> stats;
    std::vector<engine::ExecProfile> profiles;
  };
  static Watched RunWatched(store::Database* db, size_t batch_size,
                            Mode mode) {
    obs::Registry metrics;
    std::optional<obs::ScopedRegistry> scoped;
    if (mode.registry) scoped.emplace(&metrics);
    engine::ExecOptions options;
    options.batch_size = batch_size;
    options.collect_profile = mode.profile;
    Watched out;
    for (const PreparedQuery& p : *prepared_) {
      std::optional<StatusOr<engine::PreparedPrograms>> programs;
      if (mode.prepared) {
        programs = engine::PreparedPrograms::Compile(db, p.rq, p.plans);
        EXPECT_TRUE(programs->ok())
            << p.name << ": " << programs->status().ToString();
        // A failed compile runs unprepared, keeping results query-aligned.
        options.prepared = programs->ok() ? &programs->value() : nullptr;
      }
      engine::Executor exec(db, Params(), options);
      auto r = exec.ExecuteQuery(p.rq, p.plans);
      EXPECT_TRUE(r.ok()) << p.name << ": " << r.status().ToString();
      out.stats.push_back(exec.stats());
      out.profiles.push_back(exec.profile());
    }
    return out;
  }

  static size_t PlanNodes(const opt::PhysicalPlanPtr& p) {
    if (!p) return 0;
    return 1 + PlanNodes(p->child) + PlanNodes(p->left) + PlanNodes(p->right);
  }

  static map::Mapping* mapping_;
  static xml::Document* doc_;
  static std::vector<PreparedQuery>* prepared_;
};

map::Mapping* ExecutorEquivalenceTest::mapping_ = nullptr;
xml::Document* ExecutorEquivalenceTest::doc_ = nullptr;
std::vector<PreparedQuery>* ExecutorEquivalenceTest::prepared_ = nullptr;

TEST_F(ExecutorEquivalenceTest, BitIdenticalAcrossBatchSizes) {
  auto db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());
  // Powers of two plus a non-power-of-two vector size, so partial final
  // vectors and mid-stream all-filtered vectors are both exercised.
  for (size_t batch_size :
       {size_t{1}, size_t{64}, size_t{1000}, size_t{1024}, size_t{4096}}) {
    engine::ExecOptions options;
    options.batch_size = batch_size;
    for (size_t i = 0; i < prepared_->size(); ++i) {
      const PreparedQuery& p = (*prepared_)[i];
      engine::Executor exec(db.get(), Params(), options);
      auto actual = exec.ExecuteQuery(p.rq, p.plans);
      ASSERT_TRUE(actual.ok()) << p.name << ": "
                               << actual.status().ToString();
      ExpectIdentical(expected[i], actual.value(),
                      p.name + " at batch_size=" +
                          std::to_string(batch_size));
    }
  }
}

TEST_F(ExecutorEquivalenceTest, BitIdenticalWithProfilingEnabled) {
  // collect_profile turns on per-op timing; results must not change, and
  // the profile must cover every operator that ran with sane actuals.
  auto db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());
  engine::ExecOptions options;
  options.collect_profile = true;
  for (size_t i = 0; i < prepared_->size(); ++i) {
    const PreparedQuery& p = (*prepared_)[i];
    engine::Executor exec(db.get(), Params(), options);
    auto actual = exec.ExecuteQuery(p.rq, p.plans);
    ASSERT_TRUE(actual.ok()) << p.name;
    ExpectIdentical(expected[i], actual.value(), p.name + " profiled");
    EXPECT_FALSE(exec.profile().ops.empty()) << p.name;
    int64_t projected = 0;
    for (const engine::OpActual& op : exec.profile().ops) {
      EXPECT_GE(op.actual_rows, 0) << p.name << " " << op.label;
      EXPECT_GE(op.QError(), 1.0) << p.name << " " << op.label;
      if (op.kind == opt::PhysicalPlan::Kind::kProject) {
        projected += op.actual_rows;
      }
    }
    EXPECT_EQ(projected, static_cast<int64_t>(actual->rows.size()))
        << p.name;
  }
}

// Eight executors serve one Database concurrently over a cold index
// registry: every thread must see bit-identical results while hash-index
// builds race. This is the test `tools/check.sh --tsan` leans on to verify
// the storage registry's locking.
TEST_F(ExecutorEquivalenceTest, ConcurrentServingIsBitIdentical) {
  // Reference results come from a separate (deterministically identical)
  // database so the served database's index registry stays cold until the
  // threads race to populate it.
  auto reference_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(reference_db.get());
  auto db = FreshDatabase();

  constexpr int kThreads = 8;
  // Vary batch size per thread so pipelines interleave differently.
  const size_t batch_sizes[kThreads] = {1, 64, 4096, 1024, 7, 256, 2, 512};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      engine::ExecOptions options;
      options.batch_size = batch_sizes[t];
      for (size_t i = 0; i < prepared_->size(); ++i) {
        const PreparedQuery& p = (*prepared_)[i];
        engine::Executor exec(db.get(), Params(), options);
        auto actual = exec.ExecuteQuery(p.rq, p.plans);
        if (!actual.ok()) {
          failures[t] = p.name + ": " + actual.status().ToString();
          return;
        }
        if (!(expected[i].rows == actual->rows) ||
            expected[i].labels != actual->labels) {
          failures[t] = p.name + ": result mismatch";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t];
  }
}

// Same concurrency shape against a prewarmed registry: PrewarmIndexes must
// cover every index the workload needs, so no thread triggers a build.
TEST_F(ExecutorEquivalenceTest, PrewarmedConcurrentServing) {
  auto db = FreshDatabase();
  ASSERT_TRUE(db->PrewarmIndexes().ok());
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());

  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < prepared_->size(); ++i) {
        const PreparedQuery& p = (*prepared_)[i];
        engine::Executor exec(db.get(), Params());
        auto actual = exec.ExecuteQuery(p.rq, p.plans);
        if (!actual.ok()) {
          failures[t] = p.name + ": " + actual.status().ToString();
          return;
        }
        if (!(expected[i].rows == actual->rows)) {
          failures[t] = p.name + ": result mismatch";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t];
  }
}

// The tentpole's gate: the paged backend must return bit-identical results
// to the memory backend (and hence to the reference executor) across batch
// sizes, with a pool far smaller than the data so faults and evictions are
// on the hot path.
TEST_F(ExecutorEquivalenceTest, DiskBackendBitIdenticalToMemory) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = FreshDiskDatabase();
  for (size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
    engine::ExecOptions options;
    options.batch_size = batch_size;
    for (size_t i = 0; i < prepared_->size(); ++i) {
      const PreparedQuery& p = (*prepared_)[i];
      engine::Executor exec(disk_db.get(), Params(), options);
      auto actual = exec.ExecuteQuery(p.rq, p.plans);
      ASSERT_TRUE(actual.ok()) << p.name << ": "
                               << actual.status().ToString();
      ExpectIdentical(expected[i], actual.value(),
                      p.name + " on disk at batch_size=" +
                          std::to_string(batch_size));
    }
  }
  // The workload drove real page traffic through the pool.
  store::BufferPool::Stats stats = disk_db->buffer_pool()->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// The reference executor reads rows through StoredTable::ReadRow, so the
// oracle runs on paged tables too: over the paged database it returns the
// memory database's rows, and so does the vectorized executor.
TEST_F(ExecutorEquivalenceTest, DiskReferenceExecutorMatchesMemory) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = FreshDiskDatabase();
  std::vector<xq::ResultSet> disk_reference = ReferenceResults(disk_db.get());
  ASSERT_EQ(expected.size(), disk_reference.size());
  for (size_t i = 0; i < prepared_->size(); ++i) {
    const PreparedQuery& p = (*prepared_)[i];
    ExpectIdentical(expected[i], disk_reference[i],
                    p.name + " reference on disk vs memory");
    engine::Executor exec(disk_db.get(), Params());
    auto actual = exec.ExecuteQuery(p.rq, p.plans);
    ASSERT_TRUE(actual.ok()) << p.name << ": " << actual.status().ToString();
    ExpectIdentical(disk_reference[i], actual.value(),
                    p.name + " vectorized vs reference on disk");
  }
}

// Measured IO on the paged backend is real: ExecStats seeks/bytes must come
// from buffer-pool faults, move when the pool is cold vs warm, and be zero
// only when everything is resident.
TEST_F(ExecutorEquivalenceTest, DiskExecStatsReflectPoolFaults) {
  auto disk_db = FreshDiskDatabase();
  // Prewarm indexes and decoded columns: their lazy builds scan pages, and
  // that traffic belongs to warmup, not to the query being measured.
  ASSERT_TRUE(disk_db->PrewarmIndexes().ok());
  ASSERT_TRUE(disk_db->PrewarmColumns().ok());
  const PreparedQuery* scan = nullptr;
  for (const PreparedQuery& p : *prepared_) {
    if (p.name == "Q16") scan = &p;  // publish: scans every table
  }
  ASSERT_NE(scan, nullptr);
  uint64_t faults_before = disk_db->buffer_pool()->stats().faults;
  engine::Executor exec(disk_db.get(), Params());
  auto r = exec.ExecuteQuery(scan->rq, scan->plans);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t fault_delta =
      disk_db->buffer_pool()->stats().faults - faults_before;
  EXPECT_GT(exec.stats().seeks, 0.0);
  EXPECT_GT(fault_delta, 0u);
  // Every charged seek is a pool fault of one whole page.
  EXPECT_EQ(exec.stats().seeks, static_cast<double>(fault_delta));
  EXPECT_EQ(exec.stats().bytes_read, exec.stats().seeks * 1024);
}

// Forcing the hash-join build side to spill to temp pages must not change
// results.
TEST_F(ExecutorEquivalenceTest, DiskSpilledJoinsBitIdentical) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = FreshDiskDatabase();
  engine::ExecOptions options;
  options.spill_build_bytes = 1;  // every build side spills
  bool spilled = false;
  for (size_t i = 0; i < prepared_->size(); ++i) {
    const PreparedQuery& p = (*prepared_)[i];
    engine::Executor exec(disk_db.get(), Params(), options);
    auto actual = exec.ExecuteQuery(p.rq, p.plans);
    ASSERT_TRUE(actual.ok()) << p.name << ": " << actual.status().ToString();
    ExpectIdentical(expected[i], actual.value(), p.name + " spilled");
    spilled |= exec.stats().bytes_spilled > 0;
  }
  EXPECT_TRUE(spilled);  // at least one join actually took the spill path
}

// Concurrent serving over one paged database: pin/unpin and the shared
// pool must stay consistent while eight executors fault pages in and out.
TEST_F(ExecutorEquivalenceTest, ConcurrentDiskServingIsBitIdentical) {
  auto mem_db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(mem_db.get());
  auto disk_db = std::make_unique<store::Database>(
      mapping_->catalog(),
      store::StorageOptions::Paged(/*page_size=*/1024, /*pool_pages=*/16));
  ASSERT_TRUE(store::ShredDocument(*doc_, *mapping_, disk_db.get()).ok());
  ASSERT_TRUE(disk_db->PrewarmIndexes().ok());

  constexpr int kThreads = 8;
  const size_t batch_sizes[kThreads] = {1, 64, 4096, 1024, 7, 256, 2, 512};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      engine::ExecOptions options;
      options.batch_size = batch_sizes[t];
      for (size_t i = 0; i < prepared_->size(); ++i) {
        const PreparedQuery& p = (*prepared_)[i];
        engine::Executor exec(disk_db.get(), Params(), options);
        auto actual = exec.ExecuteQuery(p.rq, p.plans);
        if (!actual.ok()) {
          failures[t] = p.name + ": " + actual.status().ToString();
          return;
        }
        if (!(expected[i].rows == actual->rows) ||
            expected[i].labels != actual->labels) {
          failures[t] = p.name + ": result mismatch";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t];
  }
}

// Watching a query (profiling it, or metering it under a registry) must
// not change what it does, and neither must running it from a
// caller-compiled PreparedPrograms. Memory runs charge the reference
// executor's IO (bytes_read to 1e-9: per-batch sums round differently);
// paged runs on identically shredded databases charge identical faults.
// Runs start cold, so a lazy build only watching triggers shows up as extra
// faults. Only the prepared mode starts prewarmed, against a prewarmed
// unwatched run: its caller compiles every block (decoding the paged
// tables through the pool) before the first block runs.
TEST_F(ExecutorEquivalenceTest, ExecStatsIndependentOfWatching) {
  auto fresh_db = [&](bool disk, bool warm) {
    auto db = disk ? FreshDiskDatabase() : FreshDatabase();
    EXPECT_TRUE(!warm ||
                (db->PrewarmIndexes().ok() && db->PrewarmColumns().ok()));
    return db;
  };
  for (bool disk : {false, true}) {
    for (size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
      std::vector<engine::ExecStats> want[2];  // indexed by prewarmed
      for (bool warm : {false, true}) {
        if (disk) {
          want[warm] =
              RunWatched(fresh_db(true, warm).get(), batch_size, Mode{}).stats;
        } else {
          ReferenceResults(FreshDatabase().get(), &want[warm]);
        }
      }
      for (Mode mode : {Mode{}, Mode{true}, Mode{false, true},
                        Mode{false, false, true}}) {
        auto db = fresh_db(disk, mode.prepared);
        Watched run = RunWatched(db.get(), batch_size, mode);
        for (size_t i = 0; i < prepared_->size(); ++i) {
          const engine::ExecStats& w = want[mode.prepared][i];
          const engine::ExecStats& g = run.stats[i];
          std::string context = (*prepared_)[i].name + (disk ? " disk" : "") +
                                " batch_size=" + std::to_string(batch_size) +
                                mode.Name();
          EXPECT_EQ(w.seeks, g.seeks) << context;
          EXPECT_EQ(w.tuples_processed, g.tuples_processed) << context;
          EXPECT_EQ(w.rows_out, g.rows_out) << context;
          EXPECT_EQ(w.bytes_out, g.bytes_out) << context;
          EXPECT_EQ(w.bytes_spilled, g.bytes_spilled) << context;
          EXPECT_NEAR(w.bytes_read, g.bytes_read,
                      (disk ? 0 : 1e-9) * std::max(1.0, w.bytes_read))
              << context;
        }
      }
    }
  }
}

// EXPLAIN ANALYZE shows the plan that ran, and only it: the same operators
// at the same depths with and without a registry, and from a caller-compiled
// PreparedPrograms, each answering at least its end-of-stream batch. On
// both backends, shared-index hash joins run (and are profiled) without
// their build-side scan.
TEST_F(ExecutorEquivalenceTest, ProfiledPlanShapeIndependentOfRegistry) {
  for (bool disk : {false, true}) {
    for (size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
      auto db = disk ? FreshDiskDatabase() : FreshDatabase();
      Watched plain = RunWatched(db.get(), batch_size, Mode{true});
      bool skipped_build = false;
      for (Mode mode : {Mode{true, true}, Mode{true, false, true}}) {
        Watched watched = RunWatched(db.get(), batch_size, mode);
        for (size_t i = 0; i < prepared_->size(); ++i) {
          const PreparedQuery& p = (*prepared_)[i];
          std::string context = p.name + (disk ? " disk" : " memory") +
                                " batch_size=" + std::to_string(batch_size) +
                                mode.Name();
          const auto& want = plain.profiles[i].ops;
          const auto& got = watched.profiles[i].ops;
          ASSERT_EQ(want.size(), got.size()) << context;
          for (size_t j = 0; j < want.size(); ++j) {
            EXPECT_EQ(want[j].label, got[j].label) << context;
            EXPECT_EQ(want[j].depth, got[j].depth) << context;
            EXPECT_GE(got[j].batches, 1) << context << " " << got[j].label;
          }
          size_t nodes = 0;
          for (const auto& plan : p.plans) nodes += PlanNodes(plan);
          skipped_build |= want.size() < nodes;
        }
      }
      EXPECT_TRUE(skipped_build) << (disk ? "disk" : "memory")
                                 << " batch_size=" << batch_size;
    }
  }
}

// A PreparedPrograms compiled against one database carries that database's
// column and index pointers. Handed to an executor over another
// (identically shredded) database, it must be set aside for a set compiled
// against the executor's own database, never chased. The compiling
// database is mutated after each compile (one row in and out of every
// table, data unchanged), so a chased foreign set would fail its freshness
// check.
TEST_F(ExecutorEquivalenceTest, ForeignPreparedProgramsAreRecompiled) {
  auto compiled_on = FreshDatabase();
  auto db = FreshDatabase();
  std::vector<xq::ResultSet> expected = ReferenceResults(db.get());
  for (size_t i = 0; i < prepared_->size(); ++i) {
    const PreparedQuery& p = (*prepared_)[i];
    auto programs =
        engine::PreparedPrograms::Compile(compiled_on.get(), p.rq, p.plans);
    ASSERT_TRUE(programs.ok()) << p.name << ": "
                               << programs.status().ToString();
    for (size_t table = 0; table < compiled_on->size(); ++table) {
      store::StoredTable& t = compiled_on->table(static_cast<int>(table));
      ASSERT_TRUE(
          t.Insert(store::Row(t.meta().columns.size(), Value::MakeNull()))
              .ok());
      ASSERT_TRUE(t.RemoveLastRows(1).ok());
    }
    engine::ExecOptions options;
    options.prepared = &programs.value();
    engine::Executor exec(db.get(), Params(), options);
    auto actual = exec.ExecuteQuery(p.rq, p.plans);
    ASSERT_TRUE(actual.ok()) << p.name << ": " << actual.status().ToString();
    ExpectIdentical(expected[i], actual.value(), p.name + " foreign prepared");
  }
}

}  // namespace
}  // namespace legodb
