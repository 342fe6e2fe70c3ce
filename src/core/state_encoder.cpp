#include "core/state_encoder.hpp"

#include <algorithm>

#include "containers/matching.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::core {

namespace {

// Fixed feature layout (see header). Indices into each token row.
constexpr std::size_t kIsCluster = 0;
constexpr std::size_t kIsFunction = 1;
constexpr std::size_t kIsSlot = 2;
// Cluster token.
constexpr std::size_t kIdleFrac = 3;
constexpr std::size_t kFreeFrac = 4;
constexpr std::size_t kUsedFrac = 5;
constexpr std::size_t kBusyFrac = 6;
constexpr std::size_t kCapacity = 7;
// Function and slot tokens share the package-identity block.
constexpr std::size_t kOsId = 3;
constexpr std::size_t kLangId = 4;
constexpr std::size_t kRuntimeSize = 5;
constexpr std::size_t kRuntimeCount = 6;
constexpr std::size_t kTotalSize = 7;
constexpr std::size_t kStartCost = 8;  // cold cost (function) / warm (slot)
// Function token only.
constexpr std::size_t kExecMean = 9;
constexpr std::size_t kRuntimeInit = 10;
constexpr std::size_t kInterval = 11;
// Slot token only.
constexpr std::size_t kIdleAge = 9;
constexpr std::size_t kMatchLevel = 10;
constexpr std::size_t kUseCount = 11;
constexpr std::size_t kMemFrac = 12;
constexpr std::size_t kPreserveInit = 13;  // runtime init of last function
constexpr std::size_t kPreserveCold = 14;  // cold cost of last function
constexpr std::size_t kMinFeatureDim = 16;

/// Normalization scales.
constexpr double kLatencyScaleS = 20.0;
constexpr double kIntervalScaleS = 5.0;
constexpr double kSizeScaleMb = 2048.0;

[[nodiscard]] float id_norm(const containers::ImageSpec& image,
                            containers::Level level,
                            const containers::PackageCatalog& catalog) {
  const auto& pkgs = image.level(level);
  if (pkgs.empty()) return 0.0F;
  return static_cast<float>(pkgs.front() + 1) /
         static_cast<float>(catalog.size() + 1);
}

}  // namespace

StateEncoder::StateEncoder(StateEncoderConfig config) : config_(config) {
  MLCR_CHECK(config_.num_slots > 0);
  MLCR_CHECK_MSG(config_.feature_dim >= kMinFeatureDim,
                 "feature_dim must be >= " << kMinFeatureDim);
}

EncodedState StateEncoder::encode(const sim::ClusterEnv& env,
                                  const sim::Invocation& inv,
                                  double prev_arrival_s) const {
  const auto& catalog = env.catalog();
  const auto& pool = env.pool();
  const sim::FunctionType& fn = env.functions().get(inv.function);
  const float lat_scale = static_cast<float>(kLatencyScaleS);
  const float size_scale = static_cast<float>(kSizeScaleMb);

  EncodedState state;
  state.tokens = nn::Tensor(num_tokens(), config_.feature_dim);
  state.mask.assign(num_actions(),
                    config_.mask_invalid_actions ? 0 : 1);
  state.slot_ids.assign(config_.num_slots, containers::kInvalidContainer);
  state.mask.back() = 1;  // cold start is always allowed

  // --- Cluster token.
  {
    auto row = [&](std::size_t c) -> float& { return state.tokens(0, c); };
    row(kIsCluster) = 1.0F;
    const auto idle = pool.idle_containers();
    row(kIdleFrac) = static_cast<float>(idle.size()) /
                     static_cast<float>(config_.num_slots);
    row(kFreeFrac) =
        static_cast<float>(pool.free_mb() / pool.capacity_mb());
    row(kUsedFrac) =
        static_cast<float>(pool.used_mb() / pool.capacity_mb());
    row(kBusyFrac) = static_cast<float>(env.busy_count()) /
                     static_cast<float>(config_.num_slots);
    row(kCapacity) = static_cast<float>(pool.capacity_mb()) / size_scale;
  }

  // --- Function token.
  {
    auto row = [&](std::size_t c) -> float& { return state.tokens(1, c); };
    row(kIsFunction) = 1.0F;
    row(kOsId) = id_norm(fn.image, containers::Level::kOs, catalog);
    row(kLangId) = id_norm(fn.image, containers::Level::kLanguage, catalog);
    row(kRuntimeSize) = static_cast<float>(
        fn.image.level_size_mb(catalog, containers::Level::kRuntime) /
        kSizeScaleMb);
    row(kRuntimeCount) = static_cast<float>(
        fn.image.level(containers::Level::kRuntime).size()) / 8.0F;
    row(kTotalSize) =
        static_cast<float>(fn.image.total_size_mb(catalog)) / size_scale;
    row(kStartCost) =
        static_cast<float>(env.cost_model().cold_start(fn).total()) /
        lat_scale;
    row(kExecMean) = static_cast<float>(fn.mean_exec_s) / lat_scale;
    row(kRuntimeInit) = static_cast<float>(fn.runtime_init_s) / lat_scale;
    row(kInterval) = static_cast<float>(
        (inv.arrival_s - prev_arrival_s) / kIntervalScaleS);
  }

  // --- Slot tokens. The pool may hold more idle containers than we have
  // slots; candidates are ordered by (match level desc, recency desc) so the
  // agent always sees every reusable container first, then the most recent
  // context. Ordering is deterministic (container id breaks ties).
  auto idle = pool.idle_containers();
  std::stable_sort(
      idle.begin(), idle.end(),
      [&](const containers::Container* a, const containers::Container* b) {
        const auto ma = containers::match(fn.image, a->image);
        const auto mb = containers::match(fn.image, b->image);
        if (ma != mb) return ma > mb;
        if (a->last_idle_at != b->last_idle_at)
          return a->last_idle_at > b->last_idle_at;
        return a->id < b->id;
      });
  const std::size_t visible = std::min(idle.size(), config_.num_slots);
  for (std::size_t s = 0; s < visible; ++s) {
    const containers::Container& c = *idle[s];
    const std::size_t r = rl::kFirstSlotTokenRow + s;
    auto row = [&](std::size_t col) -> float& { return state.tokens(r, col); };
    row(kIsSlot) = 1.0F;
    row(kOsId) = id_norm(c.image, containers::Level::kOs, catalog);
    row(kLangId) = id_norm(c.image, containers::Level::kLanguage, catalog);
    row(kRuntimeSize) = static_cast<float>(
        c.image.level_size_mb(catalog, containers::Level::kRuntime) /
        kSizeScaleMb);
    row(kRuntimeCount) = static_cast<float>(
        c.image.level(containers::Level::kRuntime).size()) / 8.0F;
    row(kTotalSize) =
        static_cast<float>(c.image.total_size_mb(catalog)) / size_scale;

    const auto level = containers::match(fn.image, c.image);
    row(kMatchLevel) = static_cast<float>(level) / 3.0F;
    if (containers::reusable(level)) {
      row(kStartCost) =
          static_cast<float>(env.cost_model().warm_start(fn, level).total()) /
          lat_scale;
      state.mask[s] = 1;
    } else {
      row(kStartCost) =
          static_cast<float>(env.cost_model().cold_start(fn).total()) /
          lat_scale;
    }
    row(kIdleAge) = static_cast<float>(
        (env.now() - c.last_idle_at) / kIntervalScaleS);
    row(kUseCount) = static_cast<float>(c.use_count) / 10.0F;
    row(kMemFrac) = static_cast<float>(c.memory_mb / pool.capacity_mb());
    if (c.last_function != containers::kInvalidFunctionType) {
      const sim::FunctionType& last = env.functions().get(c.last_function);
      row(kPreserveInit) = static_cast<float>(last.runtime_init_s) / lat_scale;
      row(kPreserveCold) =
          static_cast<float>(env.cost_model().cold_start(last).total()) /
          lat_scale;
    }
    state.slot_ids[s] = c.id;
  }

  MLCR_AUDIT_POINT(audit(env, inv, state));
  return state;
}

void StateEncoder::audit(const sim::ClusterEnv& env, const sim::Invocation& inv,
                         const EncodedState& state) const {
  MLCR_CHECK_MSG(state.mask.size() == num_actions(), "mask size mismatch");
  MLCR_CHECK_MSG(state.slot_ids.size() == config_.num_slots,
                 "slot mapping size mismatch");
  MLCR_CHECK_MSG(state.mask.back() == 1, "cold start must always be allowed");
  const sim::FunctionType& fn = env.functions().get(inv.function);
  for (std::size_t s = 0; s < config_.num_slots; ++s) {
    const containers::ContainerId id = state.slot_ids[s];
    if (!config_.mask_invalid_actions) {
      // Masking ablated: every action allowed, invalid ones degrade to cold.
      MLCR_CHECK_MSG(state.mask[s] == 1, "ablated mask must allow everything");
      continue;
    }
    const containers::Container* c =
        id == containers::kInvalidContainer ? nullptr : env.pool().find(id);
    const bool reusable =
        c != nullptr && containers::reusable(containers::match(fn.image,
                                                               c->image));
    if (state.mask[s] != 0) {
      MLCR_CHECK_MSG(id != containers::kInvalidContainer,
                     "mask exposes an empty slot " << s);
      MLCR_CHECK_MSG(c != nullptr, "mask exposes absent/busy container "
                                       << id << " in slot " << s);
      MLCR_CHECK_MSG(reusable, "mask exposes no-match container "
                                   << id << " in slot " << s);
    } else {
      MLCR_CHECK_MSG(!reusable, "reusable container " << id
                                                      << " masked out in slot "
                                                      << s);
    }
  }
}

sim::Action StateEncoder::to_sim_action(const EncodedState& state,
                                        std::size_t action) const {
  MLCR_CHECK(action < num_actions());
  if (action == config_.num_slots) return sim::Action::cold();
  const containers::ContainerId id = state.slot_ids[action];
  if (id == containers::kInvalidContainer) return sim::Action::cold();
  return sim::Action::reuse(id);
}

}  // namespace mlcr::core
