#include "core/optimizer/fingerprint.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>

#include "data/record.h"

namespace rheem {

uint64_t PlanFingerprint::Mix(uint64_t h, const void* bytes, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

uint64_t PlanFingerprint::Mix(uint64_t h, const std::string& s) {
  h = Mix(h, static_cast<uint64_t>(s.size()));
  return Mix(h, s.data(), s.size());
}

uint64_t PlanFingerprint::Mix(uint64_t h, uint64_t v) {
  return Mix(h, &v, sizeof(v));
}

Result<uint64_t> PlanFingerprint::Compute(const Plan& plan) {
  if (plan.sink() == nullptr) {
    return Status::InvalidPlan("cannot fingerprint a plan without a sink");
  }
  RHEEM_ASSIGN_OR_RETURN(std::vector<Operator*> topo, plan.TopologicalOrder());
  std::map<int, uint64_t> position;  // op id -> dense topological position
  for (std::size_t i = 0; i < topo.size(); ++i) {
    position[topo[i]->id()] = static_cast<uint64_t>(i);
  }
  uint64_t h = kSeed;
  h = Mix(h, static_cast<uint64_t>(topo.size()));
  for (const Operator* op : topo) {
    h = Mix(h, op->FingerprintToken());
    h = Mix(h, op->name());
    h = Mix(h, static_cast<uint64_t>(op->inputs().size()));
    for (const Operator* in : op->inputs()) {
      h = Mix(h, position.at(in->id()));
    }
  }
  h = Mix(h, position.at(plan.sink()->id()));
  return h;
}

uint64_t PlanFingerprint::OfDataset(const Dataset& data) {
  uint64_t h = kSeed;
  h = Mix(h, static_cast<uint64_t>(data.size()));
  // Record::Hash is allocation-free; rendering each record through
  // ToString() made fingerprinting wide datasets cost more than moving them.
  for (const Record& r : data.records()) {
    h = Mix(h, static_cast<uint64_t>(r.Hash()));
  }
  return h;
}

uint64_t PlanFingerprint::OfShared(const std::shared_ptr<const Dataset>& data) {
  if (data == nullptr) return OfDataset(Dataset());
  struct Entry {
    std::weak_ptr<const Dataset> owner;
    uint64_t hash;
  };
  // Leaked on purpose: fingerprints may be taken during static destruction.
  static std::mutex* const mu = new std::mutex();
  static auto* const memo = new std::unordered_map<const Dataset*, Entry>();
  static std::size_t sweep_at = 64;
  // Same address and same owner means the same live object. A stale entry
  // holds an expired weak_ptr, whose control block stays allocated, so a
  // new table at a reused address always has a different owner.
  const auto same_owner = [&data](const Entry& e) {
    return !e.owner.owner_before(data) && !data.owner_before(e.owner);
  };
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = memo->find(data.get());
    if (it != memo->end() && same_owner(it->second)) return it->second.hash;
  }
  // Hash outside the lock; two threads racing on one table both compute the
  // same value.
  const uint64_t h = OfDataset(*data);
  std::lock_guard<std::mutex> lock(*mu);
  (*memo)[data.get()] = Entry{data, h};
  // Drop entries of freed tables, amortized over insertions.
  if (memo->size() >= sweep_at) {
    std::erase_if(*memo,
                  [](const auto& kv) { return kv.second.owner.expired(); });
    sweep_at = std::max<std::size_t>(64, 2 * memo->size());
  }
  return h;
}

}  // namespace rheem
