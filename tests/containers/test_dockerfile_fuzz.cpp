// Seeded mutation fuzz of the Dockerfile classifier, seeded from the paper's
// Fig. 5 example and the Dockerfile.* test inputs: every mutant must
// classify without crashing, the same way twice, into non-empty package
// names without whitespace, and resolve() must split those names exactly
// into catalog hits and `unknown`. Crashes and out-of-range reads surface in
// the sanitizer builds, which run this test with the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "containers/dockerfile.hpp"
#include "testing/mutate.hpp"
#include "util/rng.hpp"

namespace mlcr::containers {
namespace {

/// The paper's Fig. 5 Dockerfile and the inputs of the Dockerfile tests.
const std::vector<std::string>& seeds() {
  static const std::vector<std::string> inputs = {
      R"(
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
)",
      "FROM debian:11\nRUN apt-get install -y python3 curl libssl-dev\n",
      "FROM alpine:3.18\n"
      "RUN apk add nodejs npm\n"
      "RUN npm install express body-parser\n",
      "FROM ubuntu:22.04\nRUN apt install -y openjdk-17-jdk maven\n",
      "# build stage\n"
      "FROM busybox\n"
      "ENV DEBIAN_FRONTEND=noninteractive\n"
      "WORKDIR /app\n"
      "COPY . /app\n"
      "RUN apt update && apt upgrade -y\n"
      "CMD [\"/app/run\"]\n",
      "FROM alpine\nRUN pip install flask\nRUN pip install flask numpy\n",
  };
  return inputs;
}

/// Pieces that stress the line and command grammar: continuations, command
/// separators and line breaks.
const std::vector<std::string>& grammar_pieces() {
  static const std::vector<std::string> pieces = {
      "\\", "\\\n", "&&", " && ", "&& \\\n", "\n", "\r\n", "\nRUN ", "RUN",
      "\n#", " -y", "=", "==", "://"};
  return pieces;
}

/// A catalog holding some of the names the seeds produce, so resolve()
/// sees hits and misses at every level.
PackageCatalog make_catalog() {
  PackageCatalog catalog;
  catalog.add("ubuntu:20.04", Level::kOs, 100.0);
  catalog.add("alpine", Level::kOs, 10.0);
  catalog.add("python-3.9", Level::kLanguage, 50.0);
  catalog.add("python3", Level::kLanguage, 50.0);
  catalog.add("nodejs", Level::kLanguage, 60.0);
  catalog.add("torch", Level::kRuntime, 400.0);
  catalog.add("flask", Level::kRuntime, 10.0);
  catalog.add("curl", Level::kRuntime, 5.0);
  return catalog;
}

bool same(const DockerfileAnalysis& a, const DockerfileAnalysis& b) {
  return a.base_image == b.base_image && a.os_packages == b.os_packages &&
         a.language_packages == b.language_packages &&
         a.runtime_packages == b.runtime_packages;
}

/// Classify `text` twice and check every property on the result.
void check(const DockerfileClassifier& classifier,
           const PackageCatalog& catalog, const std::string& text) {
  const DockerfileAnalysis a = classifier.classify(text);
  EXPECT_TRUE(same(a, classifier.classify(text)))
      << "classify is not deterministic on\n"
      << text;

  const std::vector<const std::vector<std::string>*> levels = {
      &a.os_packages, &a.language_packages, &a.runtime_packages};
  std::size_t names = 0;
  for (const auto* level : levels) {
    for (const std::string& name : *level) {
      EXPECT_FALSE(name.empty()) << "empty package name from\n" << text;
      EXPECT_TRUE(std::none_of(name.begin(), name.end(),
                               [](unsigned char c) { return std::isspace(c); }))
          << "package name '" << name << "' holds whitespace, from\n"
          << text;
    }
    names += level->size();
  }

  const DockerfileAnalysis::Resolution r = a.resolve(catalog);
  std::size_t hits = 0;
  for (std::size_t l = 0; l < kNumLevels; ++l) {
    const auto& ids = r.image.level(static_cast<Level>(l));
    for (const std::string& name : *levels[l]) {
      const auto id = catalog.find(name);
      const bool unknown = std::find(r.unknown.begin(), r.unknown.end(),
                                     name) != r.unknown.end();
      if (id) {
        ++hits;
        EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), *id))
            << "catalog hit '" << name << "' missing from the image";
        EXPECT_FALSE(unknown) << "catalog hit '" << name << "' reported unknown";
      } else {
        EXPECT_TRUE(unknown) << "'" << name << "' neither resolved nor unknown";
      }
    }
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(std::count_if(
                              levels[l]->begin(), levels[l]->end(),
                              [&](const std::string& name) {
                                return catalog.find(name).has_value();
                              })))
        << "level " << l << " image holds packages no name resolved to";
  }
  EXPECT_EQ(hits + r.unknown.size(), names)
      << "resolve() does not partition the names of\n"
      << text;
}

TEST(DockerfileFuzz, MutatedDockerfilesClassifyIntoWellFormedNames) {
  const DockerfileClassifier classifier;
  const PackageCatalog catalog = make_catalog();
  util::Rng rng(2026);
  for (const std::string& seed : seeds()) {
    check(classifier, catalog, seed);
    // Truncation at every byte.
    for (std::size_t end = 0; end < seed.size(); ++end)
      check(classifier, catalog, seed.substr(0, end));
    // One to four random byte flips anywhere in the file.
    for (int i = 0; i < 300; ++i)
      check(classifier, catalog, testing::flip_bytes(seed, rng));
    // Stray backslashes, && and line breaks.
    for (int i = 0; i < 300; ++i)
      check(classifier, catalog,
            testing::splice(seed, grammar_pieces(), 1 + rng.uniform_index(4),
                            rng));
  }
  // Directives with nothing after them.
  for (const char* bare : {"RUN", "RUN \\", "RUN &&", "FROM", "run\n\\"})
    check(classifier, catalog, bare);
}

}  // namespace
}  // namespace mlcr::containers
