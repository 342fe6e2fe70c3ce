// Writes tests/core/train_golden.txt: the outcome of the fixed training run
// in train_golden.hpp for the attention network and its MLP ablation.
//
//   ./build/tests/make_train_golden > tests/core/train_golden.txt
#include <cstdio>

#include "core/train_golden.hpp"

int main() {
  std::printf(
      "# <network> <field> <values>: train_agent on TinyWorld's cycle trace; "
      "latencies, loss and weight digests as bits.\n");
  for (const bool use_attention : {true, false})
    for (const std::string& line : mlcr::core::golden::run_lines(use_attention))
      std::printf("%s\n", line.c_str());
  return 0;
}
