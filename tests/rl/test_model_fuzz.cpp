// Seeded mutation fuzz of nn::load_parameters over saved Q-networks: every
// mutated file must either load or throw util::CheckError. Crashes and
// unbounded allocations surface in the sanitizer builds, which run this
// test with the rest of the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/serialize.hpp"
#include "rl/qnetwork.hpp"
#include "testing/mutate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::rl {
namespace {

QNetworkConfig bench_network(bool use_attention) {
  QNetworkConfig cfg;
  cfg.num_slots = 24;
  cfg.use_attention = use_attention;
  return cfg;
}

std::string saved(QNetwork& net) {
  std::ostringstream os;
  nn::save_parameters(net, os);
  return os.str();
}

/// Byte offsets of a saved file's fields: `ends` holds the end of every
/// field (magic, count, and each parameter's name length, name, rows, cols
/// and data); `u64s` holds the start of every count, name-length, rows and
/// cols field.
struct Layout {
  std::vector<std::size_t> ends;
  std::vector<std::size_t> u64s;
};

std::uint64_t u64_at(const std::string& file, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, file.data() + at, sizeof(v));
  return v;
}

Layout layout_of(const std::string& file) {
  Layout l;
  std::size_t at = 8;  // magic
  l.ends.push_back(at);
  const auto u64_field = [&] {
    l.u64s.push_back(at);
    const std::uint64_t v = u64_at(file, at);
    at += sizeof(std::uint64_t);
    l.ends.push_back(at);
    return v;
  };
  const std::uint64_t count = u64_field();
  for (std::uint64_t i = 0; i < count; ++i) {
    at += u64_field();  // name
    l.ends.push_back(at);
    const std::uint64_t rows = u64_field();
    const std::uint64_t cols = u64_field();
    at += rows * cols * sizeof(float);
    l.ends.push_back(at);
  }
  EXPECT_EQ(at, file.size());
  return l;
}

/// Loads `file` into `net`. Returns true when it loaded; fails the test on
/// any exception other than util::CheckError.
bool loads(QNetwork& net, const std::string& file) {
  std::istringstream is(file);
  try {
    nn::load_parameters(net, is);
    return true;
  } catch (const util::CheckError&) {
    return false;
  }
}

void put_u64(std::string& file, std::size_t at, std::uint64_t v) {
  std::memcpy(file.data() + at, &v, sizeof(v));
}

TEST(ModelFuzz, MutatedModelFilesLoadOrThrowCheckError) {
  util::Rng init(11);
  QNetwork attention(bench_network(true), init);
  QNetwork mlp(bench_network(false), init);
  const std::string seeds[] = {saved(attention), saved(mlp)};
  QNetwork* nets[] = {&attention, &mlp};

  util::Rng rng(2024);
  for (int s = 0; s < 2; ++s) {
    const std::string& seed = seeds[s];
    QNetwork& net = *nets[s];
    ASSERT_TRUE(loads(net, seed));
    const Layout layout = layout_of(seed);

    // Truncation at every field boundary, and one byte short of each.
    for (const std::size_t end : layout.ends) {
      EXPECT_EQ(loads(net, seed.substr(0, end)), end == seed.size());
      EXPECT_FALSE(loads(net, seed.substr(0, end - 1)));
    }

    // Count, name-length, rows and cols fields set to 0, off by one either
    // way, and 2^63.
    for (const std::size_t at : layout.u64s) {
      const std::uint64_t v = u64_at(seed, at);
      for (const std::uint64_t bad :
           {std::uint64_t{0}, v - 1, v + 1, std::uint64_t{1} << 63}) {
        if (bad == v) continue;
        std::string file = seed;
        put_u64(file, at, bad);
        EXPECT_FALSE(loads(net, file)) << "field at byte " << at;
      }
    }

    // One to four random byte flips anywhere in the file.
    for (int i = 0; i < 400; ++i)
      (void)loads(net, testing::flip_bytes(seed, rng));
  }

  // One architecture's file into the other network: the failure class of
  // stale bench caches.
  EXPECT_FALSE(loads(attention, seeds[1]));
  EXPECT_FALSE(loads(mlp, seeds[0]));
}

TEST(ModelFuzz, NonFiniteWeightIsRejectedAtLoadNamingTheParameter) {
  QNetworkConfig cfg;
  cfg.num_slots = 4;
  util::Rng init(5);
  QNetwork net(cfg, init);
  nn::Parameter& poisoned = *net.parameters().back();
  poisoned.value.data()[0] = std::numeric_limits<float>::quiet_NaN();
  const std::string file = saved(net);

  QNetwork fresh(cfg, init);
  std::istringstream is(file);
  try {
    nn::load_parameters(fresh, is);
    ADD_FAILURE() << "a NaN weight loaded";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(poisoned.name), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mlcr::rl
