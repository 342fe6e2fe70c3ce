// Function type registry: the static description of each serverless function
// (its three-level image plus initialization/execution characteristics).
// FStartBench (src/fstartbench) instantiates the paper's 13 concrete types.
#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "containers/container.hpp"
#include "containers/image.hpp"

namespace mlcr::sim {

using containers::FunctionTypeId;

/// Language implementation style; drives runtime-initialization cost (paper
/// Sec. II: init is ~6% of cold start for interpreted languages but up to
/// ~45% for compiled ones like Java/.NET).
enum class LanguageKind : std::uint8_t { kInterpreted, kCompiled };

struct FunctionType {
  FunctionTypeId id = containers::kInvalidFunctionType;
  std::string name;
  std::string description;
  containers::ImageSpec image;
  /// `image`'s interned Table-I prefixes; set by FunctionTable::add.
  containers::LevelKeys level_keys = containers::kNoLevelKeys;
  LanguageKind language_kind = LanguageKind::kInterpreted;

  /// Runtime (framework/VM) initialization, paid on cold start and whenever
  /// the runtime level is re-provisioned; seconds.
  double runtime_init_s = 0.1;
  /// Function (user-code) initialization, paid on every start; seconds.
  double function_init_s = 0.05;

  /// Execution-time distribution parameters used by workload generators
  /// (lognormal-style: mean with coefficient of variation).
  double mean_exec_s = 0.5;
  double exec_cv = 0.25;
};

/// Append-only table of function types; ids are dense indices. It also
/// interns every function image's Table-I prefixes (containers::LevelKeys),
/// the integer keys of the fleet's warm index.
class FunctionTable {
 public:
  /// Append `type`, interning its image's L1, L1+L2 and L1+L2+L3 prefixes
  /// into `type.level_keys` (one dense id space per level).
  FunctionTypeId add(FunctionType type);
  [[nodiscard]] const FunctionType& get(FunctionTypeId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return types_.size(); }

  [[nodiscard]] const std::vector<FunctionType>& all() const noexcept {
    return types_;
  }

  /// The interned prefixes of any image: at each level the id some added
  /// function's identical prefix got, or kNoLevelKey from the first level
  /// whose prefix no function has. Exact: ids compare package lists.
  [[nodiscard]] containers::LevelKeys level_keys(
      const containers::ImageSpec& image) const;

 private:
  /// Per level: (the prefix's id one level down, or 0 at L1; this level's
  /// package list) -> the prefix's id. Chaining through the parent id makes
  /// equal ids mean equal lists at every level up to this one.
  using PrefixKey =
      std::pair<containers::LevelKey, std::vector<containers::PackageId>>;
  std::array<std::map<PrefixKey, containers::LevelKey>, containers::kNumLevels>
      prefix_ids_;
  std::vector<FunctionType> types_;
};

}  // namespace mlcr::sim
