#include "containers/dockerfile.hpp"

#include <gtest/gtest.h>

namespace mlcr::containers {
namespace {

// The paper's Fig. 5 Dockerfile (deep-learning application).
constexpr const char* kFig5Dockerfile = R"(
FROM ubuntu:20.04
RUN apt update && \
    apt install -y wget build-essential
RUN cd /tmp && \
    wget https://www.python.org/ftp/python/3.9.17/Python-3.9.17.tgz && \
    tar -xvf Python-3.9.17.tgz && \
    cd Python-3.9.17 && \
    ./configure --enable-optimizations && \
    make && make install
RUN pip install torch==2.0.1+cpu torchvision==0.15.2+cpu
WORKDIR /workspace
)";

TEST(Dockerfile, ClassifiesThePaperFigureFiveExample) {
  const DockerfileClassifier classifier;
  const DockerfileAnalysis a = classifier.classify(kFig5Dockerfile);

  EXPECT_EQ(a.base_image, "ubuntu:20.04");
  ASSERT_EQ(a.os_packages.size(), 1U);
  EXPECT_EQ(a.os_packages[0], "ubuntu:20.04");

  // Source-built Python 3.9 is a language-level package (paper: orange).
  ASSERT_EQ(a.language_packages.size(), 1U);
  EXPECT_EQ(a.language_packages[0], "python-3.9");

  // torch + torchvision are runtime-level (paper: green); the apt helpers
  // (wget, build-essential) land in runtime too — they are not languages.
  EXPECT_NE(std::find(a.runtime_packages.begin(), a.runtime_packages.end(),
                      "torch"),
            a.runtime_packages.end());
  EXPECT_NE(std::find(a.runtime_packages.begin(), a.runtime_packages.end(),
                      "torchvision"),
            a.runtime_packages.end());
}

TEST(Dockerfile, AptInstallSplitsLanguagesFromRuntime) {
  const DockerfileClassifier classifier;
  const auto a = classifier.classify(
      "FROM debian:11\nRUN apt-get install -y python3 curl libssl-dev\n");
  ASSERT_EQ(a.language_packages.size(), 1U);
  EXPECT_EQ(a.language_packages[0], "python3");
  EXPECT_EQ(a.runtime_packages,
            (std::vector<std::string>{"curl", "libssl-dev"}));
}

TEST(Dockerfile, ApkAddAndNpmInstall) {
  const DockerfileClassifier classifier;
  const auto a = classifier.classify(
      "FROM alpine:3.18\n"
      "RUN apk add nodejs npm\n"
      "RUN npm install express body-parser\n");
  EXPECT_EQ(a.language_packages,
            (std::vector<std::string>{"nodejs", "npm"}));
  EXPECT_EQ(a.runtime_packages,
            (std::vector<std::string>{"express", "body-parser"}));
}

TEST(Dockerfile, VersionedAptPackagesMatchVocabulary) {
  const DockerfileClassifier classifier;
  const auto a = classifier.classify(
      "FROM ubuntu:22.04\nRUN apt install -y openjdk-17-jdk maven\n");
  EXPECT_EQ(a.language_packages,
            (std::vector<std::string>{"openjdk-17-jdk"}));
  EXPECT_EQ(a.runtime_packages, (std::vector<std::string>{"maven"}));
}

TEST(Dockerfile, IgnoresNonPackageDirectivesAndComments) {
  const DockerfileClassifier classifier;
  const auto a = classifier.classify(
      "# build stage\n"
      "FROM busybox\n"
      "ENV DEBIAN_FRONTEND=noninteractive\n"
      "WORKDIR /app\n"
      "COPY . /app\n"
      "RUN apt update && apt upgrade -y\n"  // no install verb: no packages
      "CMD [\"/app/run\"]\n");
  EXPECT_EQ(a.base_image, "busybox");
  EXPECT_TRUE(a.language_packages.empty());
  EXPECT_TRUE(a.runtime_packages.empty());
}

TEST(Dockerfile, DeduplicatesRepeatedInstalls) {
  const DockerfileClassifier classifier;
  const auto a = classifier.classify(
      "FROM alpine\nRUN pip install flask\nRUN pip install flask numpy\n");
  EXPECT_EQ(a.runtime_packages,
            (std::vector<std::string>{"flask", "numpy"}));
}

TEST(Dockerfile, StripVersionVariants) {
  EXPECT_EQ(strip_version("torch==2.0.1+cpu"), "torch");
  EXPECT_EQ(strip_version("flask>=2"), "flask");
  EXPECT_EQ(strip_version("pkg=1.2-r0"), "pkg");
  EXPECT_EQ(strip_version("plain"), "plain");
}

TEST(Dockerfile, ResolveAgainstCatalog) {
  PackageCatalog catalog;
  const PackageId ubuntu = catalog.add("ubuntu:20.04", Level::kOs, 100.0);
  const PackageId python = catalog.add("python-3.9", Level::kLanguage, 50.0);
  const PackageId torch = catalog.add("torch", Level::kRuntime, 400.0);

  const DockerfileClassifier classifier;
  const auto analysis = classifier.classify(kFig5Dockerfile);
  const auto res = analysis.resolve(catalog);
  EXPECT_EQ(res.image.level(Level::kOs), std::vector<PackageId>{ubuntu});
  EXPECT_EQ(res.image.level(Level::kLanguage),
            std::vector<PackageId>{python});
  EXPECT_EQ(res.image.level(Level::kRuntime), std::vector<PackageId>{torch});
  // torchvision, wget, build-essential are not in this catalog.
  EXPECT_EQ(res.unknown.size(), 3U);
}

TEST(Dockerfile, EmptyInput) {
  const DockerfileClassifier classifier;
  const auto a = classifier.classify("");
  EXPECT_TRUE(a.base_image.empty());
  EXPECT_TRUE(a.os_packages.empty());
}

}  // namespace
}  // namespace mlcr::containers
