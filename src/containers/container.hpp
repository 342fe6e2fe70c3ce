// Container instance model: a sandbox that holds a three-level image, executes
// one function at a time, and sits in the warm pool between executions.
#pragma once

#include <array>
#include <cstdint>

#include "containers/image.hpp"

namespace mlcr::containers {

using ContainerId = std::uint64_t;
inline constexpr ContainerId kInvalidContainer = UINT64_MAX;

/// Identifier of a function *type* (an entry of the FStartBench function
/// table); invocations reference a type.
using FunctionTypeId = std::uint32_t;
inline constexpr FunctionTypeId kInvalidFunctionType = UINT32_MAX;

/// Interned Table-I prefix of an image at one match level: index 0 names
/// the L1 (OS) package list, 1 the L1+L2 lists, 2 the L1+L2+L3 lists. Ids
/// are dense per level and assigned by sim::FunctionTable, which gives two
/// prefixes the same id exactly when their package lists are equal, so a
/// container matches a function at level >= ℓ iff their level-ℓ keys are
/// equal. kNoLevelKey marks a prefix no function in the table has.
using LevelKey = std::uint32_t;
inline constexpr LevelKey kNoLevelKey = UINT32_MAX;
using LevelKeys = std::array<LevelKey, kNumLevels>;
inline constexpr LevelKeys kNoLevelKeys = {kNoLevelKey, kNoLevelKey,
                                           kNoLevelKey};

enum class ContainerState : std::uint8_t {
  kBusy,  ///< executing a function on a worker
  kIdle,  ///< warm, parked in the pool
};

/// One container. Plain data record; lifecycle transitions are driven by the
/// simulator (sim::ClusterEnv) and the warm pool.
struct Container {
  ContainerId id = kInvalidContainer;
  ImageSpec image;
  /// Interned prefixes of `image`; the simulator refreshes them wherever
  /// it sets or changes the image. The warm pool counts idle containers by
  /// them, and kNoLevelKey entries are not counted.
  LevelKeys level_keys = kNoLevelKeys;
  ContainerState state = ContainerState::kBusy;

  /// Simulation timestamps, seconds.
  double created_at = 0.0;
  double last_idle_at = 0.0;  ///< when it last entered the pool
  double last_used_at = 0.0;  ///< when it last started executing

  /// How many function executions this container has served.
  std::uint32_t use_count = 0;
  /// How many times the cleaner repacked it for a different image.
  std::uint32_t repack_count = 0;

  /// Cached footprint: base sandbox overhead + image size, MB. Must be
  /// refreshed (refresh_memory) whenever the image changes.
  double memory_mb = 0.0;

  /// Function type of the most recent execution, and the startup cost that
  /// execution paid. Consumed by the FaasCache eviction policy (its
  /// greedy-dual priority weighs frequency, cost and size).
  FunctionTypeId last_function = kInvalidFunctionType;
  double last_startup_cost_s = 0.0;

  /// Greedy-dual priority slot, maintained by FaasCacheEviction.
  double priority = 0.0;

  /// Fixed per-sandbox memory overhead (runtime, writable layer), MB.
  static constexpr double kBaseOverheadMb = 16.0;

  void refresh_memory(const PackageCatalog& catalog) {
    memory_mb = kBaseOverheadMb + image.total_size_mb(catalog);
  }
};

}  // namespace mlcr::containers
