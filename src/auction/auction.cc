#include "auction/auction.h"

#include <map>

#include "common/rng.h"
#include "xschema/schema_parser.h"

namespace legodb::auction {

const char* SchemaText() {
  return R"(
type Site = site [ People, OpenAuctions, ClosedAuctions, Categories ]

type People = people [ Person{0,*} ]

type Person = person [ @id[ String ],
                       name[ String ],
                       emailaddress[ String ],
                       phone[ String ]?,
                       address[ street[ String ], city[ String ],
                                country[ String ] ]?,
                       profile[ interest[ @category[ String ] ]{0,*},
                                education[ String ]?,
                                income[ Integer ]? ]? ]

type OpenAuctions = open_auctions [ OpenAuction{0,*} ]

type OpenAuction = open_auction [ @id[ String ],
                                  initial[ Integer ],
                                  current[ Integer ],
                                  Bid{0,*},
                                  itemref[ @item[ String ] ],
                                  seller[ @person[ String ] ],
                                  quantity[ Integer ],
                                  ends[ String ] ]

type Bid = bidder [ date[ String ],
                    personref[ @person[ String ] ],
                    increase[ Integer ] ]

type ClosedAuctions = closed_auctions [ ClosedAuction{0,*} ]

type ClosedAuction = closed_auction [ seller[ @person[ String ] ],
                                      buyer[ @person[ String ] ],
                                      itemref[ @item[ String ] ],
                                      price[ Integer ],
                                      date[ String ],
                                      quantity[ Integer ],
                                      annotation[ ~[ String ] ]? ]

type Categories = categories [ Category{0,*} ]

type Category = category [ @id[ String ], name[ String ],
                           description[ ~[ String ] ] ]
)";
}

StatusOr<xs::Schema> Schema() { return xs::ParseSchema(SchemaText()); }

const char* QueryText(const std::string& name) {
  static const std::map<std::string, const char*> kQueries = {
      {"A1", R"(FOR $p IN document("auction")/site/people/person
                WHERE $p/id = c1
                RETURN $p/name, $p/emailaddress)"},
      {"A2", R"(FOR $a IN document("auction")/site/open_auctions/open_auction
                WHERE $a/current > 1000
                RETURN $a/id, $a/current)"},
      {"A3", R"(FOR $a IN document("auction")/site/open_auctions/open_auction
                WHERE $a/id = c1
                RETURN $a/id,
                  FOR $b IN $a/bidder
                  RETURN $b/personref/person, $b/increase)"},
      {"A4", R"(FOR $a IN document("auction")/site/open_auctions/open_auction,
                    $p IN document("auction")/site/people/person
                WHERE $a/seller/person = $p/id
                RETURN $a/id, $p/name)"},
      {"A5", R"(FOR $p IN document("auction")/site/people/person,
                    $i IN $p/profile/interest
                WHERE $i/category = c1
                RETURN $p/name, $p/profile/income)"},
      {"A6", R"(FOR $a IN document("auction")/site/open_auctions/open_auction
                RETURN $a)"},
      {"A7", R"(FOR $p IN document("auction")/site/people/person
                WHERE $p/id = c1 RETURN $p)"},
      {"A8", R"(FOR $c IN
                  document("auction")/site/closed_auctions/closed_auction
                RETURN $c/price, $c/annotation/happiness)"},
  };
  auto it = kQueries.find(name);
  return it == kQueries.end() ? nullptr : it->second;
}

StatusOr<core::Workload> MakeWorkload(const std::string& name) {
  core::Workload workload;
  std::vector<std::pair<const char*, double>> entries;
  if (name == "bidding") {
    entries = {{"A1", 0.3}, {"A2", 0.2}, {"A3", 0.2},
               {"A4", 0.1}, {"A5", 0.1}, {"A8", 0.1}};
  } else if (name == "export") {
    entries = {{"A6", 0.7}, {"A7", 0.3}};
  } else {
    return Status::NotFound("unknown auction workload '" + name + "'");
  }
  for (const auto& [qname, weight] : entries) {
    const char* text = QueryText(qname);
    if (!text) return Status::Internal("missing query");
    LEGODB_RETURN_IF_ERROR(workload.Add(qname, text, weight));
  }
  return workload;
}

xml::Document Generate(const AuctionScale& scale) {
  Rng rng(scale.seed);
  xml::Document doc;
  xml::Node* site = doc.CreateRoot("site");

  auto person_id = [](int i) { return "person" + std::to_string(i); };
  auto item_id = [](int i) { return "item" + std::to_string(i); };
  auto category_id = [&](int i) {
    return "category" + std::to_string(i % std::max(1, scale.categories));
  };

  xml::Node* people = site->AddElement("people");
  for (int i = 0; i < scale.people; ++i) {
    xml::Node* person = people->AddElement("person");
    person->SetAttribute("id", person_id(i));
    person->AddElement("name", "name" + std::to_string(i));
    person->AddElement("emailaddress",
                       "mail" + std::to_string(i) + "@example.com");
    if (rng.Bernoulli(0.5)) {
      person->AddElement("phone", std::to_string(1000000 + i));
    }
    if (rng.Bernoulli(scale.address_prob)) {
      xml::Node* address = person->AddElement("address");
      address->AddElement("street", std::to_string(i) + " main st");
      address->AddElement("city", "city" + std::to_string(i % 7));
      address->AddElement("country", i % 3 ? "US" : "DE");
    }
    if (rng.Bernoulli(scale.profile_prob)) {
      xml::Node* profile = person->AddElement("profile");
      int interests = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(scale.interests_per_profile * 2) +
                      1));
      for (int k = 0; k < interests; ++k) {
        profile->AddElement("interest")->SetAttribute(
            "category", category_id(static_cast<int>(rng.Uniform(64))));
      }
      if (rng.Bernoulli(0.5)) {
        profile->AddElement("education", "degree");
      }
      // Always emit an income so the profile is never a fully empty
      // optional element: the fixed mapping cannot distinguish an absent
      // optional from a present-but-empty one (same limitation as the
      // paper's mapping — all its columns would be NULL either way).
      profile->AddElement("income",
                          std::to_string(rng.UniformInt(10000, 200000)));
    }
  }

  xml::Node* open = site->AddElement("open_auctions");
  for (int i = 0; i < scale.open_auctions; ++i) {
    xml::Node* a = open->AddElement("open_auction");
    a->SetAttribute("id", "open" + std::to_string(i));
    int64_t initial = rng.UniformInt(10, 500);
    a->AddElement("initial", std::to_string(initial));
    // Draw the bids first: the schema puts <current> before the bidders.
    struct BidData {
      std::string date;
      std::string person;
      int64_t increase;
    };
    std::vector<BidData> bids;
    int n_bids = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(scale.bids_per_auction * 2) + 1));
    int64_t current = initial;
    for (int b = 0; b < n_bids; ++b) {
      BidData bid;
      bid.date = "2001-0" + std::to_string(1 + b % 9) + "-01";
      bid.person = person_id(
          static_cast<int>(rng.Uniform(std::max(1, scale.people))));
      bid.increase = rng.UniformInt(5, 600);
      current += bid.increase;
      bids.push_back(std::move(bid));
    }
    a->AddElement("current", std::to_string(current));
    for (const BidData& bid : bids) {
      xml::Node* bidder = a->AddElement("bidder");
      bidder->AddElement("date", bid.date);
      bidder->AddElement("personref")->SetAttribute("person", bid.person);
      bidder->AddElement("increase", std::to_string(bid.increase));
    }
    a->AddElement("itemref")->SetAttribute("item", item_id(i));
    a->AddElement("seller")
        ->SetAttribute("person", person_id(static_cast<int>(rng.Uniform(
                                     std::max(1, scale.people)))));
    a->AddElement("quantity", "1");
    a->AddElement("ends", "2001-12-31");
  }

  xml::Node* closed = site->AddElement("closed_auctions");
  for (int i = 0; i < scale.closed_auctions; ++i) {
    xml::Node* c = closed->AddElement("closed_auction");
    c->AddElement("seller")->SetAttribute(
        "person",
        person_id(static_cast<int>(rng.Uniform(std::max(1, scale.people)))));
    c->AddElement("buyer")->SetAttribute(
        "person",
        person_id(static_cast<int>(rng.Uniform(std::max(1, scale.people)))));
    c->AddElement("itemref")->SetAttribute("item", item_id(1000 + i));
    c->AddElement("price", std::to_string(rng.UniformInt(20, 2000)));
    c->AddElement("date", "2001-06-15");
    c->AddElement("quantity", "1");
    if (rng.Bernoulli(0.5)) {
      xml::Node* annotation = c->AddElement("annotation");
      annotation->AddElement(rng.Bernoulli(0.5) ? "happiness" : "description",
                             "note " + std::to_string(i));
    }
  }

  xml::Node* categories = site->AddElement("categories");
  for (int i = 0; i < scale.categories; ++i) {
    xml::Node* cat = categories->AddElement("category");
    cat->SetAttribute("id", category_id(i));
    cat->AddElement("name", "catname" + std::to_string(i));
    cat->AddElement("description")
        ->AddElement("text", "all about " + std::to_string(i));
  }
  return doc;
}

}  // namespace legodb::auction
