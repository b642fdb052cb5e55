#include "core/optimizer/fingerprint.h"

#include <map>

#include "data/record.h"
#include "data/table_memo.h"

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
  return TableMemo::Hash(data, &OfDataset);
}

}  // namespace rheem
