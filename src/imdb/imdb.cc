#include "imdb/imdb.h"

#include <cmath>
#include <map>

#include "xschema/schema_parser.h"

namespace legodb::imdb {

const char* SchemaText() {
  return R"(
type IMDB = imdb [ Show{0,*}, Director{0,*}, Actor{0,*} ]

type Show = show [ @type[ String ],
                   title[ String ],
                   year[ Integer ],
                   aka[ String ]{0,10},
                   reviews[ ~[ String ] ]{0,*},
                   ( Movie | TV ) ]

type Movie = box_office[ Integer ], video_sales[ Integer ]

type TV = seasons[ Integer ], description[ String ],
          episodes[ name[ String ], guest_director[ String ] ]{0,*}

type Director = director [ name[ String ],
                           directed[ title[ String ], year[ Integer ],
                                     info[ String ]?,
                                     ~[ String ]? ]{0,*} ]

type Actor = actor [ name[ String ],
                     played[ title[ String ], year[ Integer ],
                             character[ String ],
                             order_of_appearance[ Integer ],
                             award[ result[ String ],
                                    award_name[ String ] ]{0,5} ]{0,*},
                     biography[ birthday[ String ], text[ String ] ]? ]
)";
}

const char* StatsText() {
  // Appendix A, verbatim (paths for the wildcard positions use "TILDE").
  return R"(
(["imdb"], STcnt(1));
(["imdb";"director"], STcnt(26251));
(["imdb";"director";"name"], STsize(40));
(["imdb";"director";"directed"], STcnt(105004));
(["imdb";"director";"directed";"title"], STsize(40));
(["imdb";"director";"directed";"year"], STbase(1800,2100,300));
(["imdb";"director";"directed";"info"], STcnt(50000));
(["imdb";"director";"directed";"info"], STsize(100));
(["imdb";"director";"directed";"TILDE"], STsize(255));
(["imdb";"show"], STcnt(34798));
(["imdb";"show";"title"], STsize(50));
(["imdb";"show";"year"], STbase(1800,2100,300));
(["imdb";"show";"aka"], STcnt(13641));
(["imdb";"show";"aka"], STsize(40));
(["imdb";"show";"type"], STsize(8));
(["imdb";"show";"reviews"], STcnt(11250));
(["imdb";"show";"reviews";"TILDE"], STsize(800));
(["imdb";"show";"box_office"], STcnt(7000));
(["imdb";"show";"box_office"], STbase(10000,100000000,7000));
(["imdb";"show";"video_sales"], STcnt(7000));
(["imdb";"show";"video_sales"], STbase(10000,100000000,7000));
(["imdb";"show";"seasons"], STcnt(3500));
(["imdb";"show";"description"], STsize(120));
(["imdb";"show";"episodes"], STcnt(31250));
(["imdb";"show";"episodes";"name"], STsize(40));
(["imdb";"show";"episodes";"guest_director"], STsize(40));
(["imdb";"actor"], STcnt(165786));
(["imdb";"actor";"name"], STsize(40));
(["imdb";"actor";"played"], STcnt(663144));
(["imdb";"actor";"played";"title"], STsize(40));
(["imdb";"actor";"played";"year"], STbase(1800,2100,200));
(["imdb";"actor";"played";"character"], STsize(40));
(["imdb";"actor";"played";"order_of_appearance"], STbase(1,300,300));
(["imdb";"actor";"played";"award";"result"], STsize(3));
(["imdb";"actor";"played";"award";"award_name"], STsize(40));
(["imdb";"actor";"biography"], STcnt(20000));
(["imdb";"actor";"biography";"birthday"], STsize(10));
(["imdb";"actor";"biography";"text"], STcnt(20000));
(["imdb";"actor";"biography";"text"], STsize(30));
)";
}

StatusOr<xs::Schema> Schema() { return xs::ParseSchema(SchemaText()); }

StatusOr<xs::StatsSet> Stats() { return xs::ParseStats(StatsText()); }

const char* QueryText(const std::string& name) {
  static const std::map<std::string, const char*> kQueries = {
      // --- Appendix C: lookup ---
      {"Q1", R"(FOR $v IN document("imdbdata")/imdb/show
                WHERE $v/title = c1
                RETURN $v/title, $v/year, $v/type)"},
      {"Q2", R"(FOR $v IN document("imdbdata")/imdb/show
                WHERE $v/title = c1
                RETURN $v/title, $v/year)"},
      {"Q3", R"(FOR $v IN document("imdbdata")/imdb/show
                WHERE $v/year = c1
                RETURN $v/title, $v/year)"},
      {"Q4", R"(FOR $v IN document("imdbdata")/imdb/show
                WHERE $v/title = c1
                RETURN $v/title, $v/year, $v/description)"},
      {"Q5", R"(FOR $v IN document("imdbdata")/imdb/show
                WHERE $v/title = c1
                RETURN $v/title, $v/year, $v/box_office)"},
      {"Q6", R"(FOR $v IN document("imdbdata")/imdb/show
                WHERE $v/title = c1
                RETURN $v/title, $v/year, $v/box_office, $v/description)"},
      {"Q7", R"(FOR $v IN document("imdbdata")/imdb/show
                RETURN $v/title, $v/year,
                  FOR $e IN $v/episodes
                  WHERE $e/guest_director = c1
                  RETURN $e/guest_director)"},
      {"Q8", R"(FOR $v IN document("imdbdata")/imdb/actor
                WHERE $v/name = c1
                RETURN $v/biography/birthday)"},
      {"Q9", R"(FOR $v IN document("imdbdata")/imdb/actor
                RETURN <result> $v/name,
                  FOR $b IN $v/biography
                  WHERE $b/birthday = c1
                  RETURN $b/text
                </result>)"},
      {"Q10", R"(FOR $v IN document("imdbdata")/imdb/actor
                 RETURN <result> $v/name,
                   FOR $b IN $v/biography
                   WHERE $b/birthday = c1
                   RETURN $b/text, $b/birthday
                 </result>)"},
      {"Q11", R"(FOR $v IN document("imdbdata")/imdb/actor
                 RETURN <result> $v/name,
                   FOR $p IN $v/played
                   WHERE $p/character = c1
                   RETURN $p/order_of_appearance
                 </result>)"},
      {"Q12", R"(FOR $i IN document("imdbdata")/imdb
                 FOR $a IN $i/actor, $m1 IN $a/played,
                     $d IN $i/director, $m2 IN $d/directed
                 WHERE $a/name = $d/name AND $m1/title = $m2/title
                 RETURN <result> $a/name, $m1/title, $m1/year </result>)"},
      {"Q13", R"(FOR $i IN document("imdbdata")/imdb
                 FOR $s IN $i/show, $a IN $i/actor, $m1 IN $a/played,
                     $d IN $i/director, $m2 IN $d/directed
                 WHERE $a/name = $d/name AND $m1/title = $m2/title
                   AND $m1/title = $s/title
                 RETURN <result> $a/name, $m1/title, $m1/year, $s/aka
                 </result>)"},
      {"Q14", R"(FOR $i IN document("imdbdata")/imdb
                 FOR $a IN $i/actor, $m1 IN $a/played,
                     $d IN $i/director, $m2 IN $d/directed
                 WHERE $a/name = c1 AND $m1/title = $m2/title
                 RETURN <result> $d/name, $m1/title, $m1/year </result>)"},
      // --- Appendix C: publish ---
      {"Q15", R"(FOR $a IN document("imdbdata")/imdb/actor RETURN $a)"},
      {"Q16", R"(FOR $s IN document("imdbdata")/imdb/show RETURN $s)"},
      {"Q17", R"(FOR $d IN document("imdbdata")/imdb/director RETURN $d)"},
      {"Q18", R"(FOR $a IN document("imdbdata")/imdb/actor
                 WHERE $a/name = c1 RETURN $a)"},
      {"Q19", R"(FOR $s IN document("imdbdata")/imdb/show
                 WHERE $s/title = c1 RETURN $s)"},
      {"Q20", R"(FOR $d IN document("imdbdata")/imdb/director
                 WHERE $d/name = c1 RETURN $d)"},
      // --- Section 2 motivating queries (Figure 5). The paper's
      // $v/nyt_reviews is spelled $v/reviews/nyt in our navigation. ---
      {"S2Q1", R"(FOR $v IN document("imdbdata")/imdb/show
                  WHERE $v/year = 1999
                  RETURN $v/title, $v/year, $v/reviews/nyt)"},
      {"S2Q2", R"(FOR $v IN document("imdbdata")/imdb/show RETURN $v)"},
      {"S2Q3", R"(FOR $v IN document("imdbdata")/imdb/show
                  WHERE $v/title = c2
                  RETURN $v/description)"},
      {"S2Q4", R"(FOR $v IN document("imdbdata")/imdb/show
                  RETURN <result> $v/title, $v/year,
                    FOR $e IN $v/episodes
                    WHERE $e/guest_director = c4
                    RETURN $e/name, $e/guest_director
                  </result>)"},
  };
  auto it = kQueries.find(name);
  return it == kQueries.end() ? nullptr : it->second;
}

StatusOr<core::Workload> MakeWorkload(const std::string& name) {
  struct Entry {
    const char* query;
    double weight;
  };
  std::vector<Entry> entries;
  if (name == "lookup") {
    entries = {{"Q8", 1}, {"Q9", 1}, {"Q11", 1}, {"Q12", 1}, {"Q13", 1}};
  } else if (name == "publish") {
    entries = {{"Q15", 1}, {"Q16", 1}, {"Q17", 1}};
  } else if (name == "w1") {
    entries = {{"S2Q1", 0.4}, {"S2Q2", 0.4}, {"S2Q3", 0.1}, {"S2Q4", 0.1}};
  } else if (name == "w2") {
    entries = {{"S2Q1", 0.1}, {"S2Q2", 0.1}, {"S2Q3", 0.4}, {"S2Q4", 0.4}};
  } else {
    return Status::NotFound("unknown workload '" + name + "'");
  }
  core::Workload workload;
  for (const auto& e : entries) {
    const char* text = QueryText(e.query);
    if (!text) return Status::Internal("missing query");
    LEGODB_RETURN_IF_ERROR(workload.Add(e.query, text, e.weight));
  }
  return workload;
}

namespace {

// Approximately Poisson-distributed count with the given mean.
int SampleCount(double mean, Rng* rng) {
  int base = static_cast<int>(std::floor(mean));
  double frac = mean - base;
  return base + (rng->Bernoulli(frac) ? 1 : 0) +
         (rng->Bernoulli(0.25) ? 1 : 0) - (rng->Bernoulli(0.25) ? 1 : 0);
}

const char* kOtherReviewSources[] = {"suntimes", "variety", "guardian"};

}  // namespace

xml::Document Generate(const ImdbScale& scale) {
  Rng rng(scale.seed);
  xml::Document doc;
  xml::Node* imdb = doc.CreateRoot("imdb");

  // A shared pool of person names so actor/director joins (Q12-Q14) hit.
  int people = std::max(scale.actors, scale.directors) + 10;
  auto person = [&](int i) { return "person" + std::to_string(i % people); };
  auto title = [&](int i) {
    return "title" + std::to_string(i % std::max(1, scale.shows));
  };

  for (int i = 0; i < scale.shows; ++i) {
    bool tv = rng.NextDouble() < scale.tv_fraction;
    xml::Node* show = imdb->AddElement("show");
    show->SetAttribute("type", tv ? "TV series" : "Movie");
    show->AddElement("title", title(i));
    show->AddElement("year",
                     std::to_string(1980 + rng.UniformInt(0, 40)));
    int akas = std::min(10, std::max(0, SampleCount(scale.aka_mean, &rng)));
    for (int a = 0; a < akas; ++a) {
      show->AddElement("aka", "aka" + std::to_string(i) + "_" +
                                  std::to_string(a));
    }
    int reviews = std::max(0, SampleCount(scale.review_mean, &rng));
    for (int r = 0; r < reviews; ++r) {
      xml::Node* rev = show->AddElement("reviews");
      if (rng.NextDouble() < scale.nyt_fraction) {
        rev->AddElement("nyt", "nyt review of " + title(i));
      } else {
        const char* src = kOtherReviewSources[rng.Uniform(3)];
        rev->AddElement(src, std::string(src) + " review of " + title(i));
      }
    }
    if (!tv) {
      show->AddElement("box_office",
                       std::to_string(10000 + rng.UniformInt(0, 99000000)));
      show->AddElement("video_sales",
                       std::to_string(10000 + rng.UniformInt(0, 99000000)));
    } else {
      show->AddElement("seasons", std::to_string(1 + rng.UniformInt(0, 9)));
      show->AddElement("description", "description of " + title(i));
      int episodes = std::max(0, SampleCount(scale.episodes_per_tv, &rng));
      for (int e = 0; e < episodes; ++e) {
        xml::Node* ep = show->AddElement("episodes");
        ep->AddElement("name",
                       "episode" + std::to_string(i) + "_" + std::to_string(e));
        ep->AddElement("guest_director",
                       person(static_cast<int>(rng.Uniform(people))));
      }
    }
  }

  for (int i = 0; i < scale.directors; ++i) {
    xml::Node* director = imdb->AddElement("director");
    director->AddElement("name", person(i));
    int directed =
        std::max(0, SampleCount(scale.directed_per_director, &rng));
    for (int d = 0; d < directed; ++d) {
      xml::Node* m = director->AddElement("directed");
      m->AddElement("title", title(static_cast<int>(rng.Uniform(
                                 std::max(1, scale.shows)))));
      m->AddElement("year", std::to_string(1980 + rng.UniformInt(0, 40)));
      if (rng.Bernoulli(0.5)) {
        m->AddElement("info", "info about direction " + std::to_string(d));
      }
      if (rng.Bernoulli(0.3)) {
        m->AddElement("trivia", "wildcard trivia " + std::to_string(d));
      }
    }
  }

  for (int i = 0; i < scale.actors; ++i) {
    xml::Node* actor = imdb->AddElement("actor");
    actor->AddElement("name", person(i + scale.directors / 2));
    int played = std::max(0, SampleCount(scale.played_per_actor, &rng));
    for (int p = 0; p < played; ++p) {
      xml::Node* m = actor->AddElement("played");
      m->AddElement("title", title(static_cast<int>(rng.Uniform(
                                 std::max(1, scale.shows)))));
      m->AddElement("year", std::to_string(1980 + rng.UniformInt(0, 40)));
      m->AddElement("character", "character" + std::to_string(p));
      m->AddElement("order_of_appearance",
                    std::to_string(1 + rng.UniformInt(0, 299)));
      if (rng.Bernoulli(scale.award_prob)) {
        xml::Node* award = m->AddElement("award");
        award->AddElement("result", rng.Bernoulli(0.5) ? "won" : "nom");
        award->AddElement("award_name", "oscar");
      }
    }
    if (rng.Bernoulli(scale.biography_prob)) {
      xml::Node* bio = actor->AddElement("biography");
      bio->AddElement("birthday",
                      "19" + std::to_string(50 + rng.UniformInt(0, 49)) +
                          "-01-01");
      bio->AddElement("text", "biography of actor " + std::to_string(i));
    }
  }
  return doc;
}

}  // namespace legodb::imdb
