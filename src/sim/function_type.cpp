#include "sim/function_type.hpp"

#include "util/check.hpp"

namespace mlcr::sim {

FunctionTypeId FunctionTable::add(FunctionType type) {
  MLCR_CHECK_MSG(!type.name.empty(), "function type needs a name");
  MLCR_CHECK(type.runtime_init_s >= 0.0 && type.function_init_s >= 0.0);
  MLCR_CHECK(type.mean_exec_s > 0.0 && type.exec_cv >= 0.0);
  type.id = static_cast<FunctionTypeId>(types_.size());
  containers::LevelKey parent = 0;
  for (std::size_t l = 0; l < containers::kNumLevels; ++l) {
    auto& ids = prefix_ids_[l];
    const auto level = static_cast<containers::Level>(l);
    const auto next = static_cast<containers::LevelKey>(ids.size());
    parent = ids.try_emplace({parent, type.image.level(level)}, next)
                 .first->second;
    type.level_keys[l] = parent;
  }
  types_.push_back(std::move(type));
  return types_.back().id;
}

const FunctionType& FunctionTable::get(FunctionTypeId id) const {
  MLCR_CHECK_MSG(id < types_.size(), "unknown function type " << id);
  return types_[id];
}

containers::LevelKeys FunctionTable::level_keys(
    const containers::ImageSpec& image) const {
  containers::LevelKeys keys = containers::kNoLevelKeys;
  containers::LevelKey parent = 0;
  for (std::size_t l = 0; l < containers::kNumLevels; ++l) {
    const auto& ids = prefix_ids_[l];
    const auto it =
        ids.find({parent, image.level(static_cast<containers::Level>(l))});
    if (it == ids.end()) break;
    parent = keys[l] = it->second;
  }
  return keys;
}

}  // namespace mlcr::sim
