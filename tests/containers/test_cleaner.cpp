#include "containers/cleaner.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace mlcr::containers {
namespace {

class CleanerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os_ = catalog_.add("os", Level::kOs, 100.0);
    py_ = catalog_.add("python", Level::kLanguage, 50.0);
    node_ = catalog_.add("node", Level::kLanguage, 80.0);
    flask_ = catalog_.add("flask", Level::kRuntime, 8.0);
    numpy_ = catalog_.add("numpy", Level::kRuntime, 30.0);
  }

  Container make_container(ImageSpec image) {
    Container c;
    c.id = 1;
    c.image = std::move(image);
    c.refresh_memory(catalog_);
    return c;
  }

  PackageCatalog catalog_;
  ContainerCleaner cleaner_;
  PackageId os_{}, py_{}, node_{}, flask_{}, numpy_{};
};

TEST_F(CleanerTest, FullMatchSwapsOnlyUserDataVolume) {
  const ImageSpec fn({os_}, {py_}, {flask_});
  const RepackPlan p = cleaner_.plan(fn, MatchLevel::kL3);
  EXPECT_EQ(p.unmounted_volumes, 1);  // user-data volume only
  EXPECT_EQ(p.mounted_volumes, 1);
  EXPECT_GT(p.volume_ops_s, 0.0);
}

TEST_F(CleanerTest, L2SwapsRuntimeVolume) {
  const ImageSpec fn({os_}, {py_}, {numpy_});
  const RepackPlan p = cleaner_.plan(fn, MatchLevel::kL2);
  EXPECT_EQ(p.unmounted_volumes, 2);  // runtime + user data
  EXPECT_EQ(p.mounted_volumes, 2);
}

TEST_F(CleanerTest, L1SwapsLanguageAndRuntimeVolumes) {
  const ImageSpec fn({os_}, {node_}, {numpy_});
  const RepackPlan p = cleaner_.plan(fn, MatchLevel::kL1);
  EXPECT_EQ(p.unmounted_volumes, 3);  // language + runtime + user data
  EXPECT_EQ(p.mounted_volumes, 3);
}

TEST_F(CleanerTest, PlanRejectsNoMatch) {
  const ImageSpec fn({os_}, {py_}, {flask_});
  EXPECT_THROW((void)cleaner_.plan(fn, MatchLevel::kNoMatch),
               util::CheckError);
}

TEST_F(CleanerTest, RepackAtL1RewritesLanguageAndRuntime) {
  Container c = make_container(ImageSpec({os_}, {py_}, {flask_}));
  const double before_mb = c.memory_mb;
  const ImageSpec fn({os_}, {node_}, {numpy_});
  cleaner_.repack(c, fn, catalog_, MatchLevel::kL1);
  EXPECT_EQ(c.image, fn);
  EXPECT_EQ(c.repack_count, 1U);
  // node (80) + numpy (30) replaced python (50) + flask (8): +52 MB.
  EXPECT_DOUBLE_EQ(c.memory_mb, before_mb + 52.0);
}

TEST_F(CleanerTest, RepackAtL2KeepsLanguage) {
  Container c = make_container(ImageSpec({os_}, {py_}, {flask_}));
  const ImageSpec fn({os_}, {py_}, {numpy_});
  cleaner_.repack(c, fn, catalog_, MatchLevel::kL2);
  EXPECT_EQ(c.image.level(Level::kLanguage), std::vector<PackageId>{py_});
  EXPECT_EQ(c.image.level(Level::kRuntime), std::vector<PackageId>{numpy_});
}

TEST_F(CleanerTest, RepackAtL3IsIdentityOnImage) {
  Container c = make_container(ImageSpec({os_}, {py_}, {flask_}));
  const ImageSpec fn = c.image;
  cleaner_.repack(c, fn, catalog_, MatchLevel::kL3);
  EXPECT_EQ(c.image, fn);
  EXPECT_EQ(c.repack_count, 0U) << "identical image must not count a repack";
}

TEST_F(CleanerTest, VolumeOpsCostIsPerVolume) {
  const ImageSpec fn({os_}, {node_}, {numpy_});
  const RepackPlan p = cleaner_.plan(fn, MatchLevel::kL1);
  EXPECT_EQ(p.unmounted_volumes, 3);
  EXPECT_DOUBLE_EQ(p.volume_ops_s, 3 * kVolumeUnmountS + 3 * kVolumeMountS);
}

TEST_F(CleanerTest, ContainerMemoryIncludesBaseOverhead) {
  const Container c = make_container(ImageSpec({os_}, {py_}, {flask_}));
  EXPECT_DOUBLE_EQ(c.memory_mb, Container::kBaseOverheadMb + 158.0);
}

}  // namespace
}  // namespace mlcr::containers
