// Writes tests/rl/infer_golden.txt: for each state of the fixed episode in
// infer_golden.hpp, the state's hash and, for the seeded attention network
// and its MLP ablation, the masked argmax action and every Q-value's bits.
// The attention network's action drives the episode.
//
//   ./build/tests/make_infer_golden > tests/rl/infer_golden.txt
#include <cinttypes>
#include <cstdio>

#include "rl/infer_golden.hpp"

int main() {
  using namespace mlcr;
  util::Rng attention_rng(rl::golden::kNetworkSeed);
  rl::QNetwork attention(rl::golden::network_config(true), attention_rng);
  util::Rng mlp_rng(rl::golden::kNetworkSeed);
  rl::QNetwork mlp(rl::golden::network_config(false), mlp_rng);

  std::printf(
      "# state_hash attention_action mlp_action, then the attention and the "
      "MLP network's Q-values as float bits.\n");
  rl::golden::run_episode([&](const core::EncodedState& state) {
    const nn::Tensor qa = attention.forward(state.tokens);
    const nn::Tensor qm = mlp.forward(state.tokens);
    const std::size_t action = *rl::masked_argmax(qa, state.mask);
    std::printf("%016" PRIx64 " %zu %zu", rl::golden::state_hash(state),
                action, *rl::masked_argmax(qm, state.mask));
    for (const nn::Tensor* q : {&qa, &qm})
      for (std::size_t i = 0; i < q->size(); ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, q->data() + i, sizeof bits);
        std::printf(" %08" PRIx32, bits);
      }
    std::printf("\n");
    return action;
  });
  return 0;
}
