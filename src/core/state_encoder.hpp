// State encoding for the DRL scheduler (paper Sec. IV-B "State"): workload
// state (function packages, arrival interval), container-wide state (package
// info, status, ages) and cluster-wide state (warm count, remaining pool
// capacity) are embedded into one token matrix:
//
//   row 0              — cluster token
//   row 1              — function (invocation) token; also the cold action
//   rows 2 .. 2+n-1    — one token per warm-pool slot
//
// plus the action mask of Sec. IV-C (slots whose container is absent or
// no-match are filtered out; cold start is always allowed).
#pragma once

#include <vector>

#include "rl/qnetwork.hpp"
#include "sim/env.hpp"

namespace mlcr::core {

struct StateEncoderConfig {
  std::size_t num_slots = 24;    ///< n: actionable warm containers
  std::size_t feature_dim = 16;  ///< per-token features (fixed layout)
  /// When false, the Sec. IV-C action mask is disabled (ablation): every
  /// action is allowed and invalid ones degrade to cold starts at runtime.
  bool mask_invalid_actions = true;
};

/// The encoded state: tokens, action mask, and the slot -> container mapping
/// needed to turn an action index back into a sim::Action.
struct EncodedState {
  nn::Tensor tokens;  ///< (2 + num_slots) x feature_dim
  rl::ActionMask mask;
  std::vector<containers::ContainerId> slot_ids;  ///< size num_slots
};

class StateEncoder {
 public:
  explicit StateEncoder(StateEncoderConfig config = {});

  /// Encode the environment as seen by the scheduler for `inv`.
  /// `prev_arrival_s` is the previous invocation's arrival (for the
  /// arrival-interval feature); pass inv.arrival_s for the first one.
  [[nodiscard]] EncodedState encode(const sim::ClusterEnv& env,
                                    const sim::Invocation& inv,
                                    double prev_arrival_s) const;

  /// Convert a DQN action index (0..n = slots, n = cold) to a sim::Action.
  [[nodiscard]] sim::Action to_sim_action(const EncodedState& state,
                                          std::size_t action) const;

  /// Invariant auditor for the Sec. IV-C action mask: cold start is always
  /// allowed, and no enabled slot action may point at an absent (busy /
  /// evicted) or no-match container — the DQN must never be shown an action
  /// that cannot be executed as encoded. Throws util::CheckError on
  /// violation. Runs after every encode() in audit-enabled builds (see
  /// util/audit.hpp); tests call it directly on corrupted states.
  void audit(const sim::ClusterEnv& env, const sim::Invocation& inv,
             const EncodedState& state) const;

  [[nodiscard]] const StateEncoderConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_actions() const noexcept {
    return config_.num_slots + 1;
  }
  [[nodiscard]] std::size_t num_tokens() const noexcept {
    return rl::kFirstSlotTokenRow + config_.num_slots;
  }

 private:
  StateEncoderConfig config_;
};

}  // namespace mlcr::core
