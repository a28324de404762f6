#ifndef LEGODB_SERVING_CANONICALIZE_H_
#define LEGODB_SERVING_CANONICALIZE_H_

// Lexical query canonicalization for the serving layer's plan cache.
//
// Two textually different requests that differ only in comparison-literal
// constants — `$show/year > 1994` vs `$show/year > 2000` — describe the
// same relational plan shape, and should share one cached entry. Rather
// than parse-then-normalize (which would put a full parse on the cache-hit
// path), Canonicalize() runs a token-level pass over the parser's own
// lexer (xquery/lexer.h): every number or string literal that sits in
// comparison position (immediately after a `=`, `<` or `>` token, which
// terminates every comparison operator the grammar admits) is replaced by a
// generated `__pN` bind-parameter identifier, and its value is captured in
// the binding map using the same conversions the executor applies to inline
// literals (ints directly, strings through xq::CanonicalValue) — so a
// cached execution is bit-identical to planning the literal text directly.
// Literals anywhere else — notably the `document("...")` source name,
// which follows a `(` — are structural and stay verbatim.
//
// The canonical text is the token stream re-serialized with single-space
// separators, so whitespace and quote-style differences also collapse into
// one cache entry. The fingerprint is the stable 64-bit hash of that text
// (common/hash.h); cache lookups compare the canonical text on fingerprint
// match to make a 2^-64 collision a miss instead of a wrong answer.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/value.h"

namespace legodb::serving {

struct CanonicalQuery {
  // Canonical text: single-space-joined tokens, comparison literals
  // replaced by __p0, __p1, ... in token order.
  std::string text;
  // Stable hash of `text` — the plan-cache key.
  uint64_t fingerprint = 0;
  // Values of the replaced literals, keyed by their __pN names. Merged
  // into the request's own symbolic parameters at execution time.
  std::map<std::string, Value> bindings;
};

// Never fails: text the parser would reject canonicalizes to something the
// parser rejects identically on the cache-miss path.
CanonicalQuery Canonicalize(std::string_view query_text);

}  // namespace legodb::serving

#endif  // LEGODB_SERVING_CANONICALIZE_H_
