// Level-wise package classification from Dockerfiles (paper Fig. 5 and the
// stated future-work item: "design automatic tool to facilitate the
// level-wise package classification"). Parses the subset of Dockerfile
// syntax that determines a function image's packages and assigns each to
// the OS / language / runtime level:
//
//   FROM ubuntu:20.04                      -> OS level
//   RUN apt install -y python3 curl        -> language (python3) + runtime
//   RUN wget .../Python-3.9.17.tgz && ...  -> language (source build)
//   RUN pip install torch==2.0.1 torchvision
//                                          -> runtime packages
//
// Unrecognized lines (ENV, WORKDIR, COPY, CMD, comments) are ignored, like
// the paper's example highlights only package-bearing lines.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "containers/image.hpp"

namespace mlcr::containers {

/// The classified contents of one Dockerfile.
struct DockerfileAnalysis {
  /// Base image from the FROM line (e.g. "ubuntu:20.04"); empty if absent.
  std::string base_image;
  /// Package names per level (normalized: version suffixes stripped for
  /// package-manager installs; source builds keep "name-major.minor").
  std::vector<std::string> os_packages;
  std::vector<std::string> language_packages;
  std::vector<std::string> runtime_packages;

  /// Resolve the analysis against a catalog: names found in the catalog are
  /// placed into the ImageSpec; the rest are reported in `unknown`.
  struct Resolution {
    ImageSpec image;
    std::vector<std::string> unknown;
  };
  [[nodiscard]] Resolution resolve(const PackageCatalog& catalog) const;
};

/// Classifier over a fixed language-package vocabulary.
class DockerfileClassifier {
 public:
  /// Classify Dockerfile text. Handles line continuations (trailing
  /// backslash), comments, and multi-command RUN lines joined with "&&".
  [[nodiscard]] DockerfileAnalysis classify(std::string_view dockerfile) const;

 private:
  [[nodiscard]] bool is_language_package(std::string_view name) const;
  void classify_run_command(std::string_view command,
                            DockerfileAnalysis& out) const;
};

/// Strip version decorations from a package token:
/// "torch==2.0.1+cpu" -> "torch", "flask>=2" -> "flask", "pkg=1.2-r0" -> "pkg".
[[nodiscard]] std::string strip_version(std::string_view token);

}  // namespace mlcr::containers
