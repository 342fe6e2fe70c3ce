// Level-by-level container matching (paper Table I) with L1 pruning.
#pragma once

#include <cstdint>
#include <string_view>

#include "containers/image.hpp"

namespace mlcr::containers {

/// Result of matching a function image F against a container image C.
/// Ordering is meaningful: a higher value means more reuse (kL3 = full match).
enum class MatchLevel : std::uint8_t {
  kNoMatch = 0,  ///< F.L1 != C.L1 — cold start, no benefit from this container
  kL1 = 1,       ///< OS matches; language + runtime must be re-provisioned
  kL2 = 2,       ///< OS and language match; runtime must be re-provisioned
  kL3 = 3,       ///< full match — classic warm start
};

[[nodiscard]] std::string_view to_string(MatchLevel level) noexcept;

/// Implements Table I. Comparison is level-by-level set equality with
/// pruning: if the OS level differs we return kNoMatch immediately without
/// examining L2/L3 (Sec. IV-A — reinstalling the OS invalidates everything
/// above it).
[[nodiscard]] MatchLevel match(const ImageSpec& function,
                               const ImageSpec& container) noexcept;

/// True when `level` permits any reuse of the container (i.e. not kNoMatch).
[[nodiscard]] constexpr bool reusable(MatchLevel level) noexcept {
  return level != MatchLevel::kNoMatch;
}

}  // namespace mlcr::containers
