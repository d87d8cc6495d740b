#ifndef SCX_CORE_PROPS_INTERNER_H_
#define SCX_CORE_PROPS_INTERNER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "props/physical_props.h"

namespace scx {

/// Dense id for one distinct RequiredProps value within one optimization
/// run. Ids are only meaningful inside the run that produced them (the
/// assignment order is the order sets are first interned), but
/// the props → id mapping itself is stable: equal property sets always get
/// equal ids, which is all the winner-cache keys need.
using PropsId = int32_t;

/// Interns RequiredProps values to dense PropsIds so the phase-2 hot path
/// can key its caches with a 4-byte id instead of a heap-allocated
/// `req.ToString()` string. Phase-1 requests, history entries, and enforcer
/// relaxations all pass through here (every request enters via
/// Optimizer::OptimizeGroup, histories via OptimizationContext::
/// RecordHistory).
///
/// Interning stays live after the context freezes: phase-2 rounds may meet
/// requirement sets that only arise under a particular round's enforcement
/// (e.g. a join follower's requirement pinned to the other side's delivered
/// scheme). One interner belongs to one run's context and is not
/// synchronized.
class PropsInterner {
 public:
  PropsId Intern(const RequiredProps& props) {
    std::vector<PropsId>& bucket = ids_[props.HashValue()];
    const PropsId* id = FindExact(bucket, props);
    if (id != nullptr) return *id;
    PropsId fresh = static_cast<PropsId>(by_id_.size());
    by_id_.push_back(props);
    bucket.push_back(fresh);
    return fresh;
  }

  size_t size() const { return by_id_.size(); }

 private:
  /// Buckets hold every id whose props hash to the same 64-bit value; the
  /// exact equality check below makes hash collisions harmless.
  const PropsId* FindExact(const std::vector<PropsId>& bucket,
                           const RequiredProps& props) const {
    for (const PropsId& id : bucket) {
      if (by_id_[static_cast<size_t>(id)] == props) return &id;
    }
    return nullptr;
  }

  std::unordered_map<uint64_t, std::vector<PropsId>> ids_;
  std::vector<RequiredProps> by_id_;
};

}  // namespace scx

#endif  // SCX_CORE_PROPS_INTERNER_H_
