#include "containers/dockerfile.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>

#include "util/check.hpp"

namespace mlcr::containers {

namespace {

/// Package names (as installed via apt/apk/yum) classified as language-level.
constexpr std::array<std::string_view, 20> kLanguageVocabulary = {
    "python", "python3", "python2", "openjdk", "default-jdk", "jdk",  "jre",
    "golang", "go",      "nodejs",  "node",    "npm",         "ruby", "php",
    "rust",   "gcc",     "g++",     "dotnet",  "erlang",      "perl"};

[[nodiscard]] std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

[[nodiscard]] std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::stringstream ss{std::string(line)};
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  return tokens;
}

/// Join backslash-continued lines and drop comments/empties.
[[nodiscard]] std::vector<std::string> logical_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::string pending;
  std::stringstream ss{std::string(text)};
  std::string raw;
  while (std::getline(ss, raw)) {
    // Strip trailing CR and whitespace.
    while (!raw.empty() &&
           (raw.back() == '\r' || std::isspace(static_cast<unsigned char>(
                                      raw.back()))))
      raw.pop_back();
    std::size_t start = 0;
    while (start < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[start])))
      ++start;
    raw = raw.substr(start);
    if (raw.empty() || raw[0] == '#') {
      if (!pending.empty()) continue;  // comment inside continuation
      continue;
    }
    const bool continued = raw.back() == '\\';
    if (continued) raw.pop_back();
    pending += raw;
    pending += ' ';
    if (!continued) {
      lines.push_back(pending);
      pending.clear();
    }
  }
  if (!pending.empty()) lines.push_back(pending);
  return lines;
}

/// Extract "python-3.9" style name from a source-build URL like
/// ".../Python-3.9.17.tgz".
[[nodiscard]] std::string source_build_name(std::string_view url) {
  const std::string lower = to_lower(url);
  const std::size_t slash = lower.find_last_of('/');
  std::string file =
      slash == std::string::npos ? lower : lower.substr(slash + 1);
  for (const std::string_view suffix :
       {".tar.gz", ".tgz", ".tar.xz", ".zip", ".tar"}) {
    if (file.size() > suffix.size() &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      file.resize(file.size() - suffix.size());
      break;
    }
  }
  // "python-3.9.17" -> keep name + major.minor.
  const std::size_t dash = file.find('-');
  if (dash == std::string::npos) return file;
  const std::string name = file.substr(0, dash);
  const std::string version = file.substr(dash + 1);
  const std::size_t first_dot = version.find('.');
  const std::size_t second_dot =
      first_dot == std::string::npos ? std::string::npos
                                     : version.find('.', first_dot + 1);
  return name + "-" +
         (second_dot == std::string::npos ? version
                                          : version.substr(0, second_dot));
}

[[nodiscard]] bool is_flag(std::string_view tok) {
  return !tok.empty() && tok.front() == '-';
}

}  // namespace

std::string strip_version(std::string_view token) {
  std::string out(token);
  for (const std::string_view sep : {"==", ">=", "<=", "~=", "=", "@"}) {
    const std::size_t pos = out.find(sep);
    if (pos != std::string::npos) {
      out.resize(pos);
      break;
    }
  }
  return out;
}

bool DockerfileClassifier::is_language_package(std::string_view name) const {
  const std::string lower = to_lower(strip_version(name));
  for (const std::string_view lang : kLanguageVocabulary) {
    if (lower == lang) return true;
    // "python3.9", "openjdk-17-jdk" style variants.
    if (lower.size() > lang.size() && lower.compare(0, lang.size(), lang) == 0
        && !std::isalpha(static_cast<unsigned char>(lower[lang.size()])))
      return true;
    if (lower.rfind(std::string(lang) + "-", 0) == 0) return true;
  }
  return false;
}

void DockerfileClassifier::classify_run_command(
    std::string_view command, DockerfileAnalysis& out) const {
  const auto tokens = tokenize(command);
  if (tokens.empty()) return;
  const std::string head = to_lower(tokens[0]);

  // wget/curl of a source tarball -> language-level source build.
  if (head == "wget" || head == "curl") {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (is_flag(tokens[i])) continue;
      const std::string lower = to_lower(tokens[i]);
      if (lower.find("://") == std::string::npos) continue;
      const std::string name = source_build_name(lower);
      if (!name.empty() && is_language_package(name.substr(0, name.find('-'))))
        out.language_packages.push_back(name);
    }
    return;
  }

  // Package managers.
  //   apt/apt-get/apk/yum/dnf <install|add> pkgs -> language or runtime
  //   pip/pip3/npm/gem/cargo install pkgs        -> runtime
  std::size_t first_pkg = 0;
  bool system_manager = false;
  if ((head == "apt" || head == "apt-get" || head == "yum" || head == "dnf" ||
       head == "microdnf") &&
      tokens.size() > 1) {
    std::size_t verb = 1;
    while (verb < tokens.size() && is_flag(tokens[verb])) ++verb;
    if (verb >= tokens.size()) return;
    const std::string v = to_lower(tokens[verb]);
    if (v != "install") return;  // update/upgrade/clean carry no packages
    first_pkg = verb + 1;
    system_manager = true;
  } else if (head == "apk" && tokens.size() > 1 &&
             to_lower(tokens[1]) == "add") {
    first_pkg = 2;
    system_manager = true;
  } else if ((head == "pip" || head == "pip3" || head == "npm" ||
              head == "gem" || head == "cargo") &&
             tokens.size() > 1 && to_lower(tokens[1]) == "install") {
    first_pkg = 2;
  } else {
    return;  // make, cd, ./configure, tar, ... carry no package names
  }

  for (std::size_t i = first_pkg; i < tokens.size(); ++i) {
    if (is_flag(tokens[i])) continue;
    const std::string name = strip_version(tokens[i]);
    if (name.empty()) continue;
    if (system_manager && is_language_package(name))
      out.language_packages.push_back(name);
    else
      out.runtime_packages.push_back(name);
  }
}

DockerfileAnalysis DockerfileClassifier::classify(
    std::string_view dockerfile) const {
  DockerfileAnalysis out;
  for (const std::string& line : logical_lines(dockerfile)) {
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string directive = to_lower(tokens[0]);
    if (directive == "from" && tokens.size() > 1) {
      out.base_image = tokens[1];
      out.os_packages.push_back(tokens[1]);
    } else if (directive == "run" && tokens.size() > 1) {
      // Split the remainder on "&&" into individual commands.
      std::string rest = line.substr(line.find(tokens[1], 3));
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t next = rest.find("&&", pos);
        const std::string command =
            rest.substr(pos, next == std::string::npos ? std::string::npos
                                                       : next - pos);
        classify_run_command(command, out);
        pos = next == std::string::npos ? next : next + 2;
      }
    }
    // ENV / WORKDIR / COPY / CMD / EXPOSE ... are not package-bearing.
  }
  // Deduplicate while keeping first-seen order.
  for (auto* level : {&out.os_packages, &out.language_packages,
                      &out.runtime_packages}) {
    std::vector<std::string> unique;
    for (const std::string& name : *level)
      if (std::find(unique.begin(), unique.end(), name) == unique.end())
        unique.push_back(name);
    *level = std::move(unique);
  }
  return out;
}

DockerfileAnalysis::Resolution DockerfileAnalysis::resolve(
    const PackageCatalog& catalog) const {
  Resolution res;
  std::vector<PackageId> os, lang, rt;
  auto place = [&](const std::vector<std::string>& names,
                   std::vector<PackageId>& target) {
    for (const std::string& name : names) {
      if (const auto id = catalog.find(name))
        target.push_back(*id);
      else
        res.unknown.push_back(name);
    }
  };
  place(os_packages, os);
  place(language_packages, lang);
  place(runtime_packages, rt);
  res.image = ImageSpec(std::move(os), std::move(lang), std::move(rt));
  return res;
}

}  // namespace mlcr::containers
