#include "containers/pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/tracer.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::containers {

ContainerId LruEviction::choose_victim(
    const std::vector<const Container*>& idle, double now) {
  (void)now;
  MLCR_CHECK(!idle.empty());
  const Container* victim = idle.front();
  for (const Container* c : idle)
    if (c->last_idle_at < victim->last_idle_at) victim = c;
  return victim->id;
}

ContainerId FaasCacheEviction::choose_victim(
    const std::vector<const Container*>& idle, double now) {
  (void)now;
  MLCR_CHECK(!idle.empty());
  const Container* victim = idle.front();
  for (const Container* c : idle)
    if (c->priority < victim->priority) victim = c;
  clock_ = victim->priority;  // greedy-dual aging
  return victim->id;
}

double FaasCacheEviction::frequency(FunctionTypeId fn) const {
  const auto it = admit_counts_.find(fn);
  return it == admit_counts_.end() ? 1.0 : static_cast<double>(it->second);
}

void FaasCacheEviction::on_admit(Container& container, double now) {
  (void)now;
  ++admit_counts_[container.last_function];
  const double size = std::max(container.memory_mb, 1.0);
  const double cost = std::max(container.last_startup_cost_s, 1e-3);
  container.priority =
      clock_ + frequency(container.last_function) * cost / size;
}

ContainerId RejectWhenFull::choose_victim(
    const std::vector<const Container*>& idle, double now) {
  (void)idle;
  (void)now;
  // The pool consults reject_when_full() first; reaching here is a bug.
  MLCR_CHECK_MSG(false, "RejectWhenFull must never be asked for a victim");
  return kInvalidContainer;
}

WarmPool::WarmPool(double capacity_mb, std::unique_ptr<EvictionPolicy> eviction)
    : capacity_mb_(capacity_mb), eviction_(std::move(eviction)) {
  MLCR_CHECK_MSG(capacity_mb_ > 0.0, "pool capacity must be positive");
  MLCR_CHECK(eviction_ != nullptr);
}

WarmPool::AdmitOutcome WarmPool::admit(Container container, double now) {
  MLCR_CHECK(container.state == ContainerState::kIdle);
  MLCR_CHECK(container.id != kInvalidContainer);
  MLCR_CHECK_MSG(by_id_.find(container.id) == by_id_.end(),
                 "container " << container.id << " already in pool");

  if (container.memory_mb > capacity_mb_) {
    ++rejections_;
    if (traced()) trace_instant(now, "pool_reject", container);
    MLCR_AUDIT_POINT(audit());
    return AdmitOutcome::kRejected;
  }
  auto over_budget = [&] {
    return used_mb_ + container.memory_mb > capacity_mb_;
  };
  if (over_budget() && eviction_->reject_when_full()) {
    ++rejections_;
    if (traced()) trace_instant(now, "pool_reject", container);
    MLCR_AUDIT_POINT(audit());
    return AdmitOutcome::kRejected;
  }
  while (over_budget()) {
    MLCR_CHECK(!by_id_.empty());
    const ContainerId victim = eviction_->choose_victim(idle_containers(), now);
    const auto it = by_id_.find(victim);
    MLCR_CHECK_MSG(it != by_id_.end(),
                   "eviction policy returned unknown container " << victim);
    if (traced()) trace_instant(now, "pool_evict", it->second);
    erase(victim);
    ++evictions_;
  }

  eviction_->on_admit(container, now);
  used_mb_ += container.memory_mb;
  peak_used_mb_ = std::max(peak_used_mb_, used_mb_);
  const ContainerId id = container.id;
  const auto& admitted = by_id_.emplace(id, std::move(container)).first->second;
  count_keys(admitted, +1);
  if (traced()) {
    trace_instant(now, "pool_admit", admitted);
    trace_occupancy(now);
  }
  MLCR_AUDIT_POINT(audit());
  return AdmitOutcome::kAdmitted;
}

std::optional<Container> WarmPool::take(ContainerId id, double now) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  Container c = std::move(it->second);
  used_mb_ -= c.memory_mb;
  by_id_.erase(it);
  count_keys(c, -1);
  eviction_->on_take(c, now);
  if (traced()) {
    trace_instant(now, "pool_take", c);
    trace_occupancy(now);
  }
  MLCR_AUDIT_POINT(audit());
  return c;
}

const Container* WarmPool::find(ContainerId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &it->second;
}

std::vector<const Container*> WarmPool::idle_containers() const {
  std::vector<const Container*> out;
  out.reserve(by_id_.size());
  for (const auto& [id, c] : by_id_) out.push_back(&c);
  std::sort(out.begin(), out.end(), [](const Container* a, const Container* b) {
    if (a->last_idle_at != b->last_idle_at)
      return a->last_idle_at < b->last_idle_at;
    return a->id < b->id;  // total order for determinism
  });
  return out;
}

std::size_t WarmPool::expire_older_than(double now, double ttl_s) {
  // by_id_ is id-ordered, so `expired` is already deterministic.
  std::vector<ContainerId> expired;
  for (const auto& [id, c] : by_id_)
    if (now - c.last_idle_at > ttl_s) expired.push_back(id);
  for (ContainerId id : expired) {
    if (traced()) trace_instant(now, "pool_expire", by_id_.at(id));
    erase(id);
    ++evictions_;
  }
  if (!expired.empty() && traced()) trace_occupancy(now);
  MLCR_AUDIT_POINT(audit());
  return expired.size();
}

std::optional<double> WarmPool::oldest_idle_at() const {
  std::optional<double> oldest;
  for (const auto& [id, c] : by_id_)
    if (!oldest || c.last_idle_at < *oldest) oldest = c.last_idle_at;
  return oldest;
}

std::size_t WarmPool::invalidate_all(double now) {
  const std::size_t dropped = by_id_.size();
  if (traced())
    for (const auto& [id, c] : by_id_) trace_instant(now, "pool_invalidate", c);
  by_id_.clear();
  for (auto& counts : key_counts_) counts.clear();
  used_mb_ = 0.0;
  if (dropped > 0 && traced()) trace_occupancy(now);
  MLCR_AUDIT_POINT(audit());
  return dropped;
}

bool WarmPool::traced() const noexcept {
  return tracer_ != nullptr && tracer_->enabled();
}

void WarmPool::trace_instant(double now, const char* name,
                             const Container& c) const {
  tracer_->instant(obs::Tracer::kSimPid, track_, obs::to_micros(now), name,
                   "pool",
                   {obs::narg("container", static_cast<std::int64_t>(c.id)),
                    obs::narg("memory_mb", c.memory_mb)});
}

void WarmPool::trace_occupancy(double now) const {
  const obs::Micros ts = obs::to_micros(now);
  tracer_->counter(obs::Tracer::kSimPid, track_, ts, "pool_used_mb", used_mb_);
  tracer_->counter(obs::Tracer::kSimPid, track_, ts, "pool_containers",
                   static_cast<double>(by_id_.size()));
}

void WarmPool::erase(ContainerId id) {
  const auto it = by_id_.find(id);
  MLCR_CHECK(it != by_id_.end());
  used_mb_ -= it->second.memory_mb;
  count_keys(it->second, -1);
  by_id_.erase(it);
}

void WarmPool::count_keys(const Container& c, int delta) {
  for (std::size_t l = 0; l < kNumLevels; ++l) {
    const LevelKey key = c.level_keys[l];
    if (key == kNoLevelKey) continue;
    std::vector<KeyCount>& counts = key_counts_[l];
    const auto it = std::lower_bound(
        counts.begin(), counts.end(), key,
        [](const KeyCount& kc, LevelKey k) { return kc.key < k; });
    const bool present = it != counts.end() && it->key == key;
    if (delta > 0) {
      if (present)
        ++it->count;
      else
        counts.insert(it, KeyCount{key, 1});
    } else {
      MLCR_CHECK_MSG(present, "container " << c.id << " level " << l
                                           << " key " << key
                                           << " was never counted");
      if (--it->count == 0) counts.erase(it);
    }
  }
}

void WarmPool::audit() const {
  double summed_mb = 0.0;
  std::array<std::map<LevelKey, std::size_t>, kNumLevels> recount;
  for (const auto& [id, c] : by_id_) {
    for (std::size_t l = 0; l < kNumLevels; ++l)
      if (c.level_keys[l] != kNoLevelKey) ++recount[l][c.level_keys[l]];
    MLCR_CHECK_MSG(id == c.id, "pool key " << id << " maps to container "
                                           << c.id);
    MLCR_CHECK_MSG(c.id != kInvalidContainer, "invalid container id in pool");
    MLCR_CHECK_MSG(c.state == ContainerState::kIdle,
                   "container " << c.id << " is busy while pooled");
    MLCR_CHECK_MSG(c.memory_mb > 0.0,
                   "container " << c.id << " has non-positive footprint");
    summed_mb += c.memory_mb;
  }
  // used_mb_ is maintained incrementally; allow float-accumulation slack.
  MLCR_CHECK_MSG(
      std::abs(summed_mb - used_mb_) <= 1e-6 * std::max(1.0, summed_mb),
      "pool byte accounting drifted: tracked " << used_mb_ << " MB, summed "
                                               << summed_mb << " MB");
  MLCR_CHECK_MSG(used_mb_ <= capacity_mb_ + 1e-6,
                 "pool over capacity: " << used_mb_ << " of " << capacity_mb_
                                        << " MB");
  MLCR_CHECK_MSG(peak_used_mb_ + 1e-6 >= used_mb_,
                 "peak usage below current usage");
  for (std::size_t l = 0; l < kNumLevels; ++l) {
    std::vector<KeyCount> expected;
    for (const auto& [key, count] : recount[l])
      expected.push_back({key, count});
    MLCR_CHECK_MSG(key_counts_[l] == expected,
                   "level " << l << " key counts drifted: "
                            << key_counts_[l].size() << " keys counted, "
                            << expected.size() << " in the pool");
  }
}

}  // namespace mlcr::containers
