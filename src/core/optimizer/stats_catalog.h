#ifndef RHEEM_CORE_OPTIMIZER_STATS_CATALOG_H_
#define RHEEM_CORE_OPTIMIZER_STATS_CATALOG_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/result.h"
#include "core/optimizer/cardinality.h"
#include "core/plan/plan.h"

namespace rheem {

/// \brief Learned statistics that outlive a single job: observed output
/// cardinalities keyed by sub-plan fingerprint, and calibrated cost
/// constants per (operator kind, platform).
///
/// This closes the paper's §4.2 feedback edge for the whole fleet: the
/// executor records what each sub-plan actually produced and how far each
/// platform's cost model was off, `RheemContext::Compile` seeds the
/// CardinalityEstimator with recorded cardinalities on fingerprint hits,
/// and the Enumerator multiplies operator costs by the calibrated factor —
/// so repeat traffic is planned with measured numbers instead of static
/// selectivity guesses (RHEEMix-style learning under sustained traffic).
///
/// Cardinalities are keyed by *platform-free* sub-plan fingerprints
/// (ComputeCardinalityFingerprints): how many records a sub-plan yields does
/// not depend on which platform ran it, so an observation made on one
/// platform assignment transfers to every enumeration alternative.
///
/// Cost factors are geometric means of observed/estimated cost ratios per
/// (operator kind, platform), where the estimate is EstimateStageCost
/// (cost_model.h) of the stage the operator ran in.
///
/// Persistence uses the checkpoint framing discipline (RCKP1-style): a
/// magic ("RSTC1") plus 16 lowercase-hex FNV-1a digits over the payload.
/// Truncated, bit-flipped or garbage files are rejected with IoError and
/// counted in `stats_catalog.corrupt_total`; a failed load never leaves the
/// catalog partially populated. Counters `stats_catalog.hits` /
/// `stats_catalog.misses` / `stats_catalog.updates_total` report how often
/// compile-time lookups are served from learned statistics.
///
/// Thread-safe: one catalog is shared by concurrent jobs of a JobServer.
class StatisticsCatalog {
 public:
  StatisticsCatalog() = default;
  StatisticsCatalog(const StatisticsCatalog&) = delete;
  StatisticsCatalog& operator=(const StatisticsCatalog&) = delete;

  /// Records the observed output cardinality of the sub-plan identified by
  /// `fingerprint`. Last write wins: fresh observations replace stale ones.
  void RecordCardinality(uint64_t fingerprint, double cardinality,
                         double avg_bytes);

  /// Looks up a recorded cardinality. Counts `stats_catalog.hits` /
  /// `stats_catalog.misses`.
  bool LookupCardinality(uint64_t fingerprint, Estimate* out) const;

  /// Folds one observed/estimated cost ratio for (op kind, platform) into
  /// the running geometric mean. Non-finite or non-positive ratios are
  /// ignored.
  void RecordCostRatio(const std::string& op_kind, const std::string& platform,
                       double ratio);

  /// Geometric-mean correction factor for (op kind, platform); 1.0 when
  /// nothing was recorded. Clamped to [0.05, 20] so one wild observation
  /// cannot blind the enumerator.
  double CostFactor(const std::string& op_kind,
                    const std::string& platform) const;

  /// Monotonic mutation counter (bumped by every Record* and successful
  /// DecodeFrom/LoadFromFile). Lets callers detect "learned something new".
  int64_t version() const;

  std::size_t cardinality_entries() const;
  std::size_t cost_entries() const;
  void Clear();

  /// Serializes the catalog with checksummed framing.
  std::string Encode() const;

  /// Replaces the catalog contents from `framed`. On any framing, checksum
  /// or payload error: returns IoError, counts `stats_catalog.corrupt_total`
  /// and leaves the catalog unchanged.
  Status DecodeFrom(const std::string& framed);

  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  struct CostStats {
    double log_ratio_sum = 0.0;
    int64_t count = 0;
  };

  mutable std::mutex mu_;
  std::map<uint64_t, Estimate> cardinalities_;
  std::map<std::pair<std::string, std::string>, CostStats> costs_;
  int64_t version_ = 0;
};

/// Computes, for every operator of `plan`, the *platform-free* fingerprint
/// of the sub-plan producing its output: a fold over FingerprintToken, name,
/// input arity and input fingerprints — deliberately excluding the platform
/// assignment (unlike ComputeSubPlanFingerprints), because cardinality is a
/// property of the dataflow, not of where it ran.
Result<std::map<int, uint64_t>> ComputeCardinalityFingerprints(
    const Plan& plan);

}  // namespace rheem

#endif  // RHEEM_CORE_OPTIMIZER_STATS_CATALOG_H_
