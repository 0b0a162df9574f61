// Durable, versioned plan store.
//
// One file per (fingerprint, profile signature, geometry signature) triple:
// the winning PartitionResult (plan_io JSON), wrapped in an envelope
// carrying a format version, the full key (echoed to guard against
// filename-hash collisions) and an FNV-1a checksum of the payload. The store is a *cache*, so every defect on the read side —
// unreadable file, bad JSON, wrong version, key mismatch, checksum
// mismatch — degrades to a miss; it never throws past its API. Writes go
// through a temp file plus std::filesystem::rename so a crashed writer can
// leave at worst a stale .tmp, never a torn entry.
//
// The key splits the SearchRequest into two signatures on purpose:
//
//   profile_sig — everything that enters StageProfile values: precision,
//     optimizer, block partitioning knobs, device roofline numbers, link
//     bandwidth/latency.
//   geom_sig — what remains: cluster geometry, global batch size, memory
//     budget and the DP cell cap.
//
// SearchRequest::budget.threads and SearchRequest::prune are deliberately
// excluded: plans are bit-identical across both (the thread-count
// guarantee, extended by the admissible-bound proof of docs/ALGORITHMS.md
// §12), so they must not split the cache — a pruned search hits the entry
// an exhaustive one wrote, and vice versa.
//
// Format version 2 dropped the version-1 profile-memo payload; a version-1
// entry is a miss like any other defect, and the next search rewrites it.
#pragma once

#include <filesystem>
#include <optional>
#include <string>

#include "partition/search.h"
#include "serve/fingerprint.h"

namespace rannc {
namespace serve {

/// Everything that identifies one stored plan.
struct PlanKey {
  Fingerprint fp;
  std::string profile_sig;
  std::string geom_sig;

  /// "<fp-hex>-<h(profile_sig)>-<h(geom_sig)>.plan.json"
  [[nodiscard]] std::string filename() const;
  /// Human-readable "fp/profile_sig/geom_sig" used in traces and replies.
  [[nodiscard]] std::string str() const;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// The cost-model half of the key (see file comment).
std::string profile_sig(const SearchRequest& req);
/// The geometry half of the key.
std::string geom_sig(const SearchRequest& req);

PlanKey make_plan_key(const Fingerprint& fp, const SearchRequest& req);

/// What one store entry holds: the plan (plan_io JSON; empty when the
/// search proved the request infeasible — negative results are cacheable
/// too, the `infeasible` flag distinguishes them).
struct StoredEntry {
  std::string plan_json;
  bool infeasible = false;
  std::string infeasible_reason;
};

class PlanStore {
 public:
  static constexpr int kFormatVersion = 2;

  /// Opens (creating if needed) the store directory. Throws
  /// std::filesystem::filesystem_error only here — a store that cannot
  /// even create its directory is a configuration error, unlike any
  /// later per-entry defect.
  explicit PlanStore(std::filesystem::path dir);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

  /// Loads the entry for `key`; std::nullopt on miss *or any* defect
  /// (corruption, version skew, checksum or key mismatch).
  [[nodiscard]] std::optional<StoredEntry> load(const PlanKey& key) const;

  /// Atomically persists `entry` under `key` (last writer wins). Returns
  /// false (after cleaning up) instead of throwing on I/O failure.
  bool save(const PlanKey& key, const StoredEntry& entry) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace serve
}  // namespace rannc
