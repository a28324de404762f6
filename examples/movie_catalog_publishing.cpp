// Publishing scenario (the paper's W1 motivation: "a cable company which
// routinely publishes large parts of the database for download"):
//
//  1. tune the storage for the publish-heavy workload,
//  2. shred a synthetic IMDB document into the chosen configuration,
//  3. run the publish query through the relational engine and report the
//     measured work,
//  4. reconstruct one show subtree from rows — the inverse mapping.
//
//   ./examples/movie_catalog_publishing
#include <cstdio>

#include "core/legodb.h"
#include "engine/executor.h"
#include "imdb/imdb.h"
#include "optimizer/optimizer.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/writer.h"
#include "xquery/parser.h"

using namespace legodb;

int main() {
  // Tune storage for the publishing workload (Q15-Q17).
  core::MappingEngine engine;
  if (!engine.LoadSchemaText(imdb::SchemaText()).ok() ||
      !engine.LoadStatsText(imdb::StatsText()).ok()) {
    return 1;
  }
  auto workload = imdb::MakeWorkload("publish");
  if (!workload.ok()) return 1;
  engine.SetWorkload(std::move(workload).value());
  auto result = engine.FindBestConfiguration(core::GreedySiOptions());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const map::Mapping& mapping = result->mapping;
  std::printf("chosen configuration (%zu tables), search cost %.1f\n\n",
              mapping.catalog().size(), result->search.best_cost);

  // Load data: generate a catalog and shred it.
  imdb::ImdbScale scale;
  scale.shows = 200;
  scale.directors = 50;
  scale.actors = 120;
  xml::Document doc = imdb::Generate(scale);
  store::Database db(mapping.catalog());
  Status st = store::ShredDocument(doc, mapping, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "shred failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("shredded %zu XML nodes into %zu rows across %zu tables\n",
              doc.root->SubtreeSize(), db.TotalRows(),
              mapping.catalog().size());
  for (size_t i = 0; i < db.size(); ++i) {
    const store::StoredTable& table = db.table(static_cast<int>(i));
    std::printf("  %-12s %6zu rows\n", table.meta().name.c_str(),
                table.row_count());
  }

  // Publish all shows through the relational engine.
  auto query = xq::ParseQuery(imdb::QueryText("Q16"));
  auto rq = xlat::TranslateQuery(query.value(), mapping);
  opt::Optimizer optimizer(mapping.catalog());
  auto planned = optimizer.PlanQuery(rq.value());
  std::vector<opt::PhysicalPlanPtr> plans;
  for (const auto& b : planned->blocks) plans.push_back(b.plan);
  engine::Executor exec(&db);
  auto rows = exec.ExecuteQuery(rq.value(), plans);
  if (!rows.ok()) return 1;
  std::printf(
      "\npublish run: %zu blocks, %.0f rows out, %.0f bytes read, "
      "%.0f tuples processed (estimated cost %.1f)\n",
      rq->blocks.size(), exec.stats().rows_out, exec.stats().bytes_read,
      exec.stats().tuples_processed, planned->total_cost);

  // Reconstruct one show subtree from its rows (ids are document order; the
  // first show is the second node shredded after the imdb root).
  for (const map::TypeMapping& tm : mapping.types()) {
    if (tm.virtual_union) continue;
    const xs::Type& body = *mapping.schema().Get(tm.type_name);
    if (body.kind == xs::Type::Kind::kElement && body.name.name == "show") {
      const store::StoredTable& table = db.table(tm.table);
      if (table.row_count() == 0) continue;
      auto first = table.ReadRow(0);
      if (!first.ok()) return 1;
      int64_t id = (*first)[rel::Table::kKeyColumn].as_int();
      xml::Document out;
      xml::Node* holder = out.CreateRoot("holder");
      if (store::ReconstructInstance(&db, mapping, tm.type_name, id, holder)
              .ok()) {
        std::printf("\nreconstructed <show> (id %lld) from table %s:\n%s",
                    static_cast<long long>(id), tm.type_name.c_str(),
                    xml::Serialize(*holder->children()[0]).c_str());
      }
      break;
    }
  }
  return 0;
}
