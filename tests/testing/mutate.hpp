// Seeded byte-level mutations for the hand-written input fuzzers (libFuzzer
// is not in this toolchain). Every mutant is a pure function of the Rng
// stream, so a failure reproduces from the test's fixed seed.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mlcr::testing {

/// `text` with one to four random bytes XOR-ed with a non-zero mask.
[[nodiscard]] inline std::string flip_bytes(std::string text, util::Rng& rng) {
  const std::size_t flips = 1 + rng.uniform_index(4);
  for (std::size_t f = 0; f < flips; ++f)
    text[rng.uniform_index(text.size())] ^=
        static_cast<char>(1 + rng.uniform_index(255));
  return text;
}

/// Pieces that stress a number grammar: signs, exponents, decimal points,
/// hex and special spellings, overflow and underflow.
[[nodiscard]] inline const std::vector<std::string>& number_pieces() {
  static const std::vector<std::string> pieces = {
      "-",     "+",     "e",     "E+",    "e-",   ".",     "0",
      "9",     "-0",    "00",    "1e400", "1e-400", "0x1F", "inf",
      "nan",   "4294967296",   "18446744073709551616",   ".5",
      "5.",    "1e",    "--1",   "1.2.3", "99999999999999999999999"};
  return pieces;
}

/// `text` with `count` random pieces each inserted at, or written over the
/// byte at, a random offset.
[[nodiscard]] inline std::string splice(std::string text,
                                        const std::vector<std::string>& pieces,
                                        std::size_t count, util::Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& piece = pieces[rng.uniform_index(pieces.size())];
    const std::size_t at = rng.uniform_index(text.size() + 1);
    const bool overwrite = at < text.size() && rng.uniform_index(2) == 0;
    text.replace(at, overwrite ? 1 : 0, piece);
  }
  return text;
}

}  // namespace mlcr::testing
