// Canonical 128-bit fingerprint over the task-graph IR.
//
// The plan store and the serving daemon key cached partition results by
// graph *identity*: two submissions must share a cache entry exactly when
// the partitioner would treat them identically. That rules out hashing the
// builder's in-memory representation directly — node names and the
// insertion order of independent tasks are presentation details the
// search never depends on. The fingerprint therefore hashes only semantic
// facts:
//
//  - op kinds and their attributes,
//  - topology, via Weisfeiler–Lehman-style value labels: each value's
//    label is derived from the labels of everything upstream of it, so the
//    final multiset of labels encodes the dataflow structure without
//    referencing ids or insertion order of independent subgraphs,
//  - input positions (the caller feeds inputs positionally, so input order
//    is semantic; parameters are an unordered bag reached by edges),
//  - every value's recorded shape and dtype.
//
// Only verified graphs are fingerprinted (analysis::VerifiedGraph), so the
// recorded intermediate shapes and dtypes are exactly those the inputs
// imply: a graph whose recorded metadata disagrees with shape inference is
// rejected, never given an identity.
//
// The result is invariant across process runs, RANNC_THREADS, and any
// renaming/reordering that preserves semantics — and changes whenever an
// op kind, attribute, shape, dtype, edge, or output marking changes.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/verifier.h"

namespace rannc {
namespace serve {

/// A 128-bit digest, printable as 32 lowercase hex digits.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] std::string hex() const;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Parses the 32-hex-digit form produced by hex(); throws
/// std::invalid_argument on anything else.
Fingerprint parse_fingerprint(const std::string& hex);

/// Computes the canonical fingerprint. Passing a TaskGraph verifies it
/// first and throws std::logic_error (VerifiedGraph's) when it is
/// malformed; a caller that keeps the VerifiedGraph pays no second check.
Fingerprint fingerprint_graph(const VerifiedGraph& g);

}  // namespace serve
}  // namespace rannc
