#ifndef RHEEM_CORE_OPTIMIZER_FINGERPRINT_H_
#define RHEEM_CORE_OPTIMIZER_FINGERPRINT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/plan/plan.h"
#include "data/dataset.h"

namespace rheem {

/// \brief Canonical 64-bit fingerprints of plans, used by the service
/// layer's plan cache to recognize repeat queries and skip the optimizer
/// (RHEEMix-style amortization of cross-platform optimization cost).
///
/// The fingerprint folds, over the plan's deterministic topological order:
/// each operator's FingerprintToken() (kind + parameters + UDF metadata —
/// see Operator::FingerprintToken for the equal-token contract), its name,
/// its dataflow wiring (input positions in topological order), and the sink
/// position. Equal fingerprints are treated as "same job"; anything the
/// token does not encode (UDF closure bodies in particular) is assumed
/// identical between plans with equal structure.
class PlanFingerprint {
 public:
  /// FNV-1a offset basis; starting hash for incremental mixing.
  static constexpr uint64_t kSeed = 1469598103934665603ull;

  static uint64_t Mix(uint64_t h, const void* bytes, std::size_t len);
  static uint64_t Mix(uint64_t h, const std::string& s);
  static uint64_t Mix(uint64_t h, uint64_t v);

  /// Fingerprint of a plan at any abstraction level. Errors when the plan
  /// is not a valid DAG (TopologicalOrder fails) or has no sink.
  static Result<uint64_t> Compute(const Plan& plan);

  /// Content hash of an in-memory dataset (every record). Source operators
  /// fold this into their token so that two structurally identical plans
  /// reading different collections never share a fingerprint.
  static uint64_t OfDataset(const Dataset& data);

  /// OfDataset of a shared immutable table, computed once per table object
  /// through TableMemo (see there for the address-reuse check and why a
  /// shared table must never be mutated in place). Null hashes as an empty
  /// dataset. Thread-safe.
  static uint64_t OfShared(const std::shared_ptr<const Dataset>& data);
};

}  // namespace rheem

#endif  // RHEEM_CORE_OPTIMIZER_FINGERPRINT_H_
