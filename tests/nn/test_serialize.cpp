#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "nn/attention.hpp"
#include "util/check.hpp"

namespace mlcr::nn {
namespace {

FeedForward make_net(std::uint64_t seed) {
  util::Rng rng(seed);
  return FeedForward(4, 8, rng);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  FeedForward src = make_net(1);
  FeedForward dst = make_net(2);
  util::Rng rng(3);
  const Tensor x = Tensor::he_uniform(3, 4, rng);
  const Tensor before = src.forward(x);

  std::stringstream buffer;
  save_parameters(src, buffer);
  load_parameters(dst, buffer);
  const Tensor after = dst.forward(x);
  EXPECT_TRUE(before == after);
}

TEST(Serialize, RejectsGarbageMagic) {
  FeedForward net = make_net(1);
  std::stringstream buffer("definitely not a model file");
  EXPECT_THROW(load_parameters(net, buffer), util::CheckError);
}

TEST(Serialize, RejectsStructureMismatch) {
  FeedForward src = make_net(1);
  std::stringstream buffer;
  save_parameters(src, buffer);

  util::Rng rng(9);
  Linear different(4, 8, rng);
  EXPECT_THROW(load_parameters(different, buffer), util::CheckError);
}

TEST(Serialize, RejectsTruncatedFile) {
  FeedForward src = make_net(1);
  std::stringstream buffer;
  save_parameters(src, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  FeedForward dst = make_net(2);
  EXPECT_THROW(load_parameters(dst, truncated), util::CheckError);
}

TEST(Serialize, FileRoundTrip) {
  FeedForward src = make_net(1);
  FeedForward dst = make_net(2);
  const std::string path = ::testing::TempDir() + "/mlcr_net.bin";
  save_parameters(src, path);
  load_parameters(dst, path);
  util::Rng rng(5);
  const Tensor x = Tensor::he_uniform(2, 4, rng);
  EXPECT_TRUE(src.forward(x) == dst.forward(x));
}

TEST(Serialize, CopyParametersMakesNetworksIdentical) {
  FeedForward a = make_net(1);
  FeedForward b = make_net(2);
  copy_parameters(a, b);
  util::Rng rng(4);
  const Tensor x = Tensor::he_uniform(2, 4, rng);
  EXPECT_TRUE(a.forward(x) == b.forward(x));
}

TEST(Serialize, AttentionModuleRoundTrips) {
  util::Rng rng1(1), rng2(2), rngx(3);
  MultiHeadAttention a(8, 2, rng1), b(8, 2, rng2);
  std::stringstream buffer;
  save_parameters(a, buffer);
  load_parameters(b, buffer);
  const Tensor x = Tensor::he_uniform(3, 8, rngx);
  EXPECT_TRUE(a.forward(x) == b.forward(x));
}

}  // namespace
}  // namespace mlcr::nn
