// Lookup scenario (the paper's W2 motivation: "lookup queries issued to a
// movie-information web site, like the IMDB itself"):
//
//  1. tune the storage for the interactive lookup workload,
//  2. load data,
//  3. serve parameterized lookups through the relational engine, comparing
//     against direct XQuery-over-DOM evaluation,
//  4. show the optimizer's plan for one lookup.
//
//   ./examples/web_lookup_service
#include <cstdio>

#include "core/legodb.h"
#include "engine/executor.h"
#include "imdb/imdb.h"
#include "optimizer/optimizer.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

using namespace legodb;

int main() {
  core::MappingEngine engine;
  if (!engine.LoadSchemaText(imdb::SchemaText()).ok() ||
      !engine.LoadStatsText(imdb::StatsText()).ok()) {
    return 1;
  }
  auto workload = imdb::MakeWorkload("lookup");
  if (!workload.ok()) return 1;
  engine.SetWorkload(std::move(workload).value());
  auto result = engine.FindBestConfiguration(core::GreedySoOptions());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const map::Mapping& mapping = result->mapping;
  std::printf("lookup-tuned configuration: %zu tables\n\n",
              mapping.catalog().size());

  imdb::ImdbScale scale;
  scale.shows = 150;
  scale.directors = 40;
  scale.actors = 80;
  xml::Document doc = imdb::Generate(scale);
  store::Database db(mapping.catalog());
  if (!store::ShredDocument(doc, mapping, &db).ok()) return 1;

  // Serve a few lookups, with engine-vs-DOM cross-checking.
  struct Request {
    const char* query;
    const char* param;
    Value value;
  };
  Request requests[] = {
      {"Q1", "c1", Value::Str("title7")},
      {"Q3", "c1", Value::Int(1995)},
      {"Q8", "c1", Value::Str("person9")},
  };
  opt::Optimizer optimizer(mapping.catalog());
  for (const Request& req : requests) {
    auto query = xq::ParseQuery(imdb::QueryText(req.query));
    auto rq = xlat::TranslateQuery(query.value(), mapping);
    auto planned = optimizer.PlanQuery(rq.value());
    std::vector<opt::PhysicalPlanPtr> plans;
    for (const auto& b : planned->blocks) plans.push_back(b.plan);
    std::map<std::string, Value> params = {{req.param, req.value}};
    engine::Executor exec(&db, params);
    auto rows = exec.ExecuteQuery(rq.value(), plans);
    auto reference = xq::EvaluateOnDocument(query.value(), doc, params);
    if (!rows.ok() || !reference.ok()) return 1;
    std::printf("%s(%s = %s): %zu rows, estimated cost %.1f, %s\n",
                req.query, req.param, req.value.ToString().c_str(),
                rows->rows.size(), planned->total_cost,
                rows->SameRows(reference.value())
                    ? "matches DOM evaluation"
                    : "MISMATCH vs DOM evaluation!");
    for (const auto& row : rows->rows) {
      std::printf("   ");
      for (const auto& v : row) std::printf(" | %s", v.ToString().c_str());
      std::printf("\n");
    }
  }

  // Show the plan chosen for Q1.
  auto query = xq::ParseQuery(imdb::QueryText("Q1"));
  auto rq = xlat::TranslateQuery(query.value(), mapping);
  auto planned = optimizer.PlanQuery(rq.value());
  std::printf("\nSQL for Q1:\n%s\n\nplan:\n", rq->ToSql(mapping.catalog()).c_str());
  for (size_t i = 0; i < planned->blocks.size(); ++i) {
    std::printf("%s",
                planned->blocks[i]
                    .plan->ToString(mapping.catalog(), rq->blocks[i])
                    .c_str());
  }
  return 0;
}
