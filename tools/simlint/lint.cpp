#include "simlint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace mlcr::simlint {

namespace {

[[nodiscard]] bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

[[nodiscard]] bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// --- Path scopes -----------------------------------------------------------
//
// Each rule declares where it applies. Scopes are prefix tests on the
// repo-relative path (always forward-slash separated).

bool anywhere(const std::string&) { return true; }
bool outside_util(const std::string& p) { return !starts_with(p, "src/util/"); }
bool sim_code(const std::string& p) {
  return starts_with(p, "src/") && outside_util(p);
}
bool metric_code(const std::string& p) {
  // Code whose output feeds metrics, traces or benchmark tables.
  return starts_with(p, "src/") || starts_with(p, "bench/");
}
bool sim_or_containers(const std::string& p) {
  return starts_with(p, "src/sim/") || starts_with(p, "src/containers/");
}
bool fault_code(const std::string& p) {
  // Code that injects or reacts to faults: all randomness must arrive as a
  // stream split() off the episode seed, never a locally-invented seed.
  return starts_with(p, "src/faults/") || starts_with(p, "src/fleet/");
}
bool wall_time_code(const std::string& p) {
  // Everything in src/ except the two places wall time may be read: src/util
  // (the wall-clock producer) and the one file implementing serve::WallClock.
  return sim_code(p) && p != "src/serve/clock.cpp";
}
bool serve_obs_facade(const std::string& p) {
  // The serving layer records through serve::Telemetry (the concurrent
  // facade); only the facade's own implementation touches the raw
  // single-threaded obs types.
  return starts_with(p, "src/serve/") && p != "src/serve/telemetry.hpp" &&
         p != "src/serve/telemetry.cpp";
}

// --- Source preprocessing --------------------------------------------------

/// Blanks string literals and char literals, and either blanks comments too
/// (`keep_comments == false` — the form rule patterns scan) or keeps their
/// text (`keep_comments == true` — the form `simlint:allow` detection scans,
/// so allow-comments embedded in string literals never count). Line
/// structure is preserved either way. A number keeps its digit separators
/// (`5'000` opens no char literal), and an unterminated string or char
/// literal ends at its line.
[[nodiscard]] std::vector<std::string> blanked_lines(const std::string& source,
                                                     bool keep_comments) {
  std::string code = source;
  std::size_t i = 0;
  const std::size_t n = code.size();
  auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < n; ++k)
      if (code[k] != '\n') code[k] = ' ';
  };
  while (i < n) {
    const char c = code[i];
    if (c == '/' && i + 1 < n && code[i + 1] == '/') {
      std::size_t end = code.find('\n', i);
      if (end == std::string::npos) end = n;
      if (!keep_comments) blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && code[i + 1] == '*') {
      std::size_t end = code.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      if (!keep_comments) blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && code[i + 1] == '"') {
      const std::size_t paren = code.find('(', i + 2);
      if (paren == std::string::npos) {
        ++i;
        continue;
      }
      const std::string delim = code.substr(i + 2, paren - (i + 2));
      std::size_t end = code.find(")" + delim + "\"", paren);
      end = end == std::string::npos ? n : end + delim.size() + 2;
      blank(i, end);
      i = end;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 &&
               (i == 0 || !ident_char(code[i - 1]))) {
      // A number: digits, letters (hex digits, suffixes), '.', and a '
      // between two of those.
      ++i;
      while (i < n && (ident_char(code[i]) || code[i] == '.' ||
                       (code[i] == '\'' && i + 1 < n &&
                        ident_char(code[i + 1]))))
        ++i;
    } else if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && code[j] != c && code[j] != '\n')
        j += code[j] == '\\' ? 2 : 1;
      const std::size_t end = j < n && code[j] == c ? j + 1 : std::min(j, n);
      blank(i, end);
      i = end;
    } else {
      ++i;
    }
  }
  std::vector<std::string> lines;
  std::istringstream is(code);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// --- Rule table ------------------------------------------------------------

using PathScope = bool (*)(const std::string&);

/// A rule that fires on any code line matching `pattern`.
struct LineRule {
  const char* id;
  const char* description;
  PathScope applies;
  const char* pattern;
  const char* message;
};

const LineRule kLineRules[] = {
    {"banned-random",
     "std::random_device / rand() / srand() — unseeded or global randomness "
     "breaks bit-identical replay",
     anywhere,
     R"(std::random_device|(^|[^\w:.>])(std\s*::\s*)?s?rand\s*\()",
     "use util::Rng (explicitly seeded, portable) instead of "
     "std::random_device / rand()"},
    {"banned-clock",
     "wall-clock reads (system_clock / steady_clock / high_resolution_clock) "
     "outside src/util — simulated time must come from the event loop",
     outside_util,
     R"(\b(system_clock|steady_clock|high_resolution_clock)\b)",
     "wall-clock time in simulation code breaks replay; if timing "
     "instrumentation is needed, put it behind an interface in util/"},
    {"banned-getenv",
     "getenv in simulator code — environment variables make results "
     "machine-dependent",
     sim_code,
     R"((^|[^\w:.])(std\s*::\s*)?getenv\s*\()",
     "configuration must flow through explicit config structs, not the "
     "process environment"},
    {"banned-unchecked-number",
     "atoi / atol / atoll / stoul / stoull / stod / stof / stold — a "
     "non-numeric value silently becomes 0, a negative one wraps to a huge "
     "unsigned count, a suffix is ignored, and nan passes every threshold",
     anywhere,
     R"((^|[^\w:.>])(std\s*::\s*)?(atoi|atol|atoll|stoul|stoull|stod|stof|stold)\s*\()",
     "parse counts with util::parse_count (the whole string, non-negative, "
     "fits size_t) and other numbers with util::parse_number (the whole "
     "string, finite), which throw CheckError naming the flag instead"},
    {"pointer-key",
     "pointer-valued keys in (unordered_)map/set — ordering and hashing by "
     "address varies run to run",
     anywhere,
     R"(\b(unordered_map|unordered_set|map|set)\s*<\s*(const\s+)?[A-Za-z_][\w:]*\s*\*)",
     "key the container by a stable id (ContainerId, FunctionTypeId, ...) "
     "instead of a pointer"},
    {"fault-rng-stream",
     "util::Rng constructed from a literal seed, or default-constructed, in "
     "src/faults or src/fleet — fault randomness must be a stream split() "
     "off the episode seed, or faults stop being a pure function of the "
     "episode",
     fault_code,
     R"(\bRng\s*(\w+\s*)?[({]\s*(0x[0-9A-Fa-f]+|[0-9])|\bRng\s+\w*[A-Za-z0-9]\s*(;|\{\s*\}))",
     "derive the stream from the episode: split() the caller's Rng or "
     "forward a seed variable; a literal seed or the hidden default seed "
     "decouples fault injection from the episode seed and silently breaks "
     "replay"},
    {"serve-clock-injection",
     "direct wall-time reads in src/ outside src/util and "
     "src/serve/clock.cpp — service logic takes time from an injected "
     "serve::Clock (live WallClock or replayed SimClock), and src/obs is "
     "clock-free: every timestamp is supplied by the caller",
     wall_time_code,
     R"(\b(wall_now_us|clock_gettime|gettimeofday|timespec_get|localtime(_r)?|gmtime(_r)?)\s*\()",
     "inject a serve::Clock (SimClock for replay, WallClock for live "
     "serving) or take the timestamp from the caller instead of reading "
     "wall time; src/serve/clock.cpp is the only wall-time consumer outside "
     "src/util"},
    {"obs-concurrent-registry",
     "direct MetricsRegistry / Tracer use in src/serve outside the telemetry "
     "facade — the raw obs types are single-threaded, so workers sharing one "
     "race on every record",
     serve_obs_facade,
     R"(\b(MetricsRegistry|Tracer)\b)",
     "serve code records through serve::Telemetry (ConcurrentMetricsRegistry "
     "slots + mutex-serialised trace emission); only src/serve/telemetry.* "
     "may touch the raw obs types"},
    {"bare-lock",
     ".lock()/.unlock()/.try_lock() called directly on a mutex instead of "
     "through an RAII guard",
     anywhere,
     R"(\b(\w*mutex_?|mtx_?)\s*(\.|->)\s*(try_lock|lock|unlock)\s*\()",
     "acquire through an RAII guard (lock_guard / unique_lock / shared_lock "
     "/ scoped_lock) so every exit path releases"},
};

// --- unordered-iteration ---------------------------------------------------
//
// Flags range-for / .begin() iteration over unordered_map/unordered_set
// members in metric-producing code (src/, bench/): their iteration order is
// implementation-defined, so anything folded from it (sums are safe only in
// exact arithmetic; evictions, argmax, output rows are never safe) can change
// across standard libraries or even runs. Member names are collected from the
// unit plus its paired header.

constexpr char kUnorderedIterId[] = "unordered-iteration";

[[nodiscard]] std::set<std::string> unordered_member_names(
    const std::vector<std::string>& code) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{}]*>\s+([A-Za-z_]\w*)\s*[;{=])");
  std::set<std::string> names;
  for (const auto& line : code) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      names.insert((*it)[1].str());
  }
  return names;
}

void check_unordered_iteration(const std::vector<std::string>& code,
                               const std::set<std::string>& names,
                               const std::string& rel_path,
                               std::vector<Violation>& out) {
  if (names.empty()) return;
  static const std::regex kRangeFor(R"(for\s*\([^:;()]*:\s*([A-Za-z_]\w*)\s*\))");
  static const std::regex kBegin(R"(\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const auto* re : {&kRangeFor, &kBegin}) {
      auto begin = std::sregex_iterator(code[i].begin(), code[i].end(), *re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (names.count((*it)[1].str()) == 0) continue;
        out.push_back({rel_path, i + 1, kUnorderedIterId,
                       "iteration over unordered container '" +
                           (*it)[1].str() +
                           "' feeds metrics/traces; iterate a sorted view or "
                           "switch to std::map (or justify with "
                           "simlint:allow)"});
      }
    }
  }
}

// --- uninit-member ---------------------------------------------------------
//
// Heuristic: inside a struct/class body (at the body's own brace depth, so
// inline member functions are skipped), a scalar member declared without an
// initializer is flagged. Scoped to src/sim and src/containers, where plain
// data records flow through the simulator and an uninitialized field is
// silently nondeterministic.

constexpr char kUninitId[] = "uninit-member";

void check_uninit_members(const std::vector<std::string>& code,
                          const std::string& rel_path,
                          std::vector<Violation>& out) {
  static const std::regex kStructHead(
      R"(^\s*(template\s*<[^>]*>\s*)?(struct|class)\s+[A-Za-z_]\w*)");
  static const std::regex kEnumHead(R"(^\s*enum\b)");
  static const std::regex kScalarMember(
      R"(^\s*(?:mutable\s+)?(?:double|float|bool|char|short|int|long|unsigned|std::size_t|std::u?int(?:8|16|32|64)_t|std::ptrdiff_t|(?:containers::)?(?:ContainerId|FunctionTypeId|PackageId))\s+([A-Za-z_]\w*)\s*;)");

  int depth = 0;
  bool pending_struct = false;  // struct head seen, '{' not yet
  std::vector<int> body_depths;

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    const int depth_before = depth;
    const bool is_struct_head = std::regex_search(line, kStructHead) &&
                                !std::regex_search(line, kEnumHead);

    if (!body_depths.empty() && depth_before == body_depths.back()) {
      std::smatch m;
      if (std::regex_search(line, m, kScalarMember))
        out.push_back({rel_path, i + 1, kUninitId,
                       "scalar member '" + m[1].str() +
                           "' has no initializer; an uninitialized read is "
                           "nondeterministic — default it at the declaration"});
    }

    bool struct_opens = false;
    for (const char c : line) {
      if (c == '{') {
        ++depth;
        if ((is_struct_head && !struct_opens) || pending_struct) {
          body_depths.push_back(depth);
          struct_opens = true;
          pending_struct = false;
        }
      } else if (c == '}') {
        --depth;
        if (!body_depths.empty() && depth < body_depths.back())
          body_depths.pop_back();
      }
    }
    if (is_struct_head && !struct_opens &&
        line.find(';') == std::string::npos)
      pending_struct = true;
    else if (pending_struct && line.find(';') != std::string::npos)
      pending_struct = false;  // forward declaration spread over lines
  }
}

// --- Checked function bodies -----------------------------------------------
//
// missing-transition-check and router-route-check both ask one question of
// a function definition: does its body validate anything? body_from()
// answers it for the function whose head is on a given line.

struct Body {
  bool defined = false;  ///< a '{' came before any ';' (not a declaration)
  bool checked = false;  ///< a body line contains one of the check markers
  std::size_t end = 0;   ///< line where the scan stopped
};

[[nodiscard]] Body body_from(const std::vector<std::string>& code,
                             std::size_t head,
                             std::initializer_list<const char*> checks) {
  Body body;
  int depth = 0;
  for (std::size_t i = head; i < code.size(); ++i) {
    body.end = i;
    // Update brace state first so a check on the opening-brace line (or a
    // whole one-line body) counts as inside the body.
    bool line_in_body = body.defined;
    bool done = false;
    for (const char c : code[i]) {
      if (c == '{') {
        ++depth;
        body.defined = true;
        line_in_body = true;
      } else if (c == '}') {
        --depth;
        if (body.defined && depth == 0) {
          done = true;
          break;
        }
      }
    }
    if (line_in_body)
      for (const char* check : checks)
        if (code[i].find(check) != std::string::npos) body.checked = true;
    // A ';' before any '{' means a declaration or a qualified call.
    if (done || (!body.defined && code[i].find(';') != std::string::npos))
      break;
  }
  return body;
}

// --- missing-transition-check ----------------------------------------------
//
// Public pool/env state-transition functions must validate their
// preconditions or run the invariant auditor: the table below names them,
// and the rule fires when a listed function's body contains neither
// MLCR_CHECK* nor MLCR_AUDIT* nor assert(.

constexpr char kTransitionId[] = "missing-transition-check";

struct TransitionCheck {
  const char* file_suffix;
  const char* function;  ///< qualified name, e.g. "WarmPool::admit"
};

const TransitionCheck kTransitionChecks[] = {
    {"containers/pool.cpp", "WarmPool::admit"},
    {"containers/pool.cpp", "WarmPool::take"},
    {"containers/pool.cpp", "WarmPool::expire_older_than"},
    {"containers/pool.cpp", "WarmPool::invalidate_all"},
    {"sim/env.cpp", "ClusterEnv::offer"},
    {"sim/env.cpp", "ClusterEnv::step"},
    {"sim/env.cpp", "ClusterEnv::advance_to"},
    {"sim/env.cpp", "ClusterEnv::finish_streaming"},
    {"sim/env.cpp", "ClusterEnv::crash"},
    {"sim/env.cpp", "ClusterEnv::recover"},
    {"fleet/fleet_env.cpp", "FleetEnv::run"},
};

void check_transitions(const std::vector<std::string>& code,
                       const std::string& rel_path,
                       std::vector<Violation>& out) {
  for (const TransitionCheck& tc : kTransitionChecks) {
    if (!ends_with(rel_path, tc.file_suffix)) continue;
    const std::string name = tc.function;
    bool found = false;
    for (std::size_t i = 0; i < code.size() && !found; ++i) {
      const std::size_t pos = code[i].find(name);
      if (pos == std::string::npos) continue;
      const std::size_t after = pos + name.size();
      if (after < code[i].size() && ident_char(code[i][after]))
        continue;  // prefix of a longer name
      const Body body =
          body_from(code, i, {"MLCR_CHECK", "MLCR_AUDIT", "assert("});
      if (!body.defined) continue;
      found = true;
      if (!body.checked)
        out.push_back({rel_path, i + 1, kTransitionId,
                       name +
                           " transitions pool/env state without MLCR_CHECK / "
                           "MLCR_AUDIT; validate the transition"});
    }
    if (!found)
      out.push_back({rel_path, 1, kTransitionId,
                     "state-transition function " + name +
                         " not found; update the simlint transition table if "
                         "it moved"});
  }
}

// --- router-route-check ----------------------------------------------------
//
// Every `Router::route()` and `Router::pick()` definition in
// fleet/router.cpp must validate its inputs (MLCR_CHECK* or assert) before
// returning a node index: they are the fleet's only request-placement
// decision points (route() in FleetEnv::run, pick() wherever a router is
// hosted), and an unchecked out-of-range node index corrupts per-node state
// silently. Unlike missing-transition-check this rule is not table-driven —
// it discovers every qualified route()/pick() definition so new Router
// implementations are covered the moment they are written.

constexpr char kRouterId[] = "router-route-check";

void check_router_routes(const std::vector<std::string>& code,
                         const std::string& rel_path,
                         std::vector<Violation>& out) {
  if (!ends_with(rel_path, "fleet/router.cpp")) return;
  static const std::regex kDef(R"(\b[A-Za-z_]\w*::(route|pick)\s*\()");
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!std::regex_search(code[i], kDef)) continue;
    const Body body = body_from(code, i, {"MLCR_CHECK", "assert("});
    if (body.defined && !body.checked)
      out.push_back({rel_path, i + 1, kRouterId,
                     "route()/pick() places a request without MLCR_CHECK / "
                     "assert; validate the fleet and any cursor/ring state "
                     "before returning a node index"});
    i = body.end;  // qualified calls inside the body are not definitions
  }
}

constexpr char kUnusedSuppressionId[] = "unused-suppression";

/// Rule ids consumed by the whole-tree layering pass (layers.cpp), which
/// honors suppressions itself; lint_source must not count them unused.
[[nodiscard]] bool is_layer_rule(const std::string& id) {
  return id == "layer-cycle" || id == "layer-upward";
}

}  // namespace

std::vector<std::string> code_lines(const std::string& source) {
  return blanked_lines(source, /*keep_comments=*/false);
}

// Each `simlint:allow(...)` comment becomes one entry; matching a violation
// marks it used, and entries still unused after filtering are themselves
// errors (unused-suppression) — stale allowances must not linger once the
// code they excused is gone. Comments are kept and literals blanked, so an
// allow spelled inside a string literal never counts.
Suppressions::Suppressions(const std::string& source) {
  static const std::regex kAllow(
      R"(simlint:allow(-file)?\(([A-Za-z0-9_-]+)\))");
  const std::vector<std::string> lines =
      blanked_lines(source, /*keep_comments=*/true);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto begin = std::sregex_iterator(lines[i].begin(), lines[i].end(), kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      entries_.push_back({(*it)[2].str(), i + 1, (*it)[1].matched, false});
  }
}

bool Suppressions::allowed(const std::string& rule, std::size_t line) {
  bool hit = false;
  for (Entry& e : entries_) {
    if (e.rule != rule) continue;
    if (e.file_level || e.line == line || e.line + 1 == line) {
      e.used = true;
      hit = true;
    }
  }
  return hit;
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = [] {
    std::vector<RuleInfo> out;
    for (const LineRule& r : kLineRules) out.push_back({r.id, r.description});
    out.push_back({kUnorderedIterId,
                   "range-for / begin() over unordered_map|set members in "
                   "metric-producing code (src/, bench/)"});
    out.push_back({kUninitId,
                   "scalar struct member without initializer in src/sim or "
                   "src/containers"});
    out.push_back({kTransitionId,
                   "public pool/env state transition without MLCR_CHECK / "
                   "MLCR_AUDIT / assert"});
    out.push_back({kRouterId,
                   "Router::route() / pick() definition in fleet/router.cpp "
                   "without MLCR_CHECK / assert on its placement inputs"});
    out.push_back({kUnusedSuppressionId,
                   "a simlint:allow(...) comment that no longer suppresses "
                   "any violation (or names an unknown rule)"});
    return out;
  }();
  return kRules;
}

std::vector<Violation> lint_source(const std::string& source,
                                   const std::string& rel_path,
                                   const std::string& paired_header) {
  const std::vector<std::string> code = code_lines(source);
  Suppressions allow(source);

  std::vector<Violation> found;
  for (const LineRule& rule : kLineRules) {
    if (!rule.applies(rel_path)) continue;
    const std::regex re(rule.pattern);
    for (std::size_t i = 0; i < code.size(); ++i)
      if (std::regex_search(code[i], re))
        found.push_back({rel_path, i + 1, rule.id, rule.message});
  }

  if (metric_code(rel_path)) {
    std::set<std::string> names = unordered_member_names(code);
    if (!paired_header.empty())
      for (const auto& n : unordered_member_names(code_lines(paired_header)))
        names.insert(n);
    check_unordered_iteration(code, names, rel_path, found);
  }
  if (sim_or_containers(rel_path)) check_uninit_members(code, rel_path, found);
  check_transitions(code, rel_path, found);
  check_router_routes(code, rel_path, found);

  std::vector<Violation> out;
  for (Violation& v : found)
    if (!allow.allowed(v.rule, v.line)) out.push_back(std::move(v));

  // Stale or misspelled allowances are errors themselves. These are not
  // subject to suppression: the fix is always to delete the comment.
  for (const Suppressions::Entry& e : allow.entries()) {
    if (e.used || is_layer_rule(e.rule)) continue;
    bool known = false;
    for (const RuleInfo& r : rules()) known = known || r.id == e.rule;
    out.push_back({rel_path, e.line, kUnusedSuppressionId,
                   known ? "simlint:allow(" + e.rule +
                               ") no longer suppresses any violation; "
                               "remove the stale comment"
                         : "simlint:allow(" + e.rule +
                               ") names an unknown rule; fix the spelling "
                               "or remove it (see simlint --list-rules)"});
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) throw std::runtime_error("simlint: cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<std::string> source_files(const std::string& repo_root,
                                      const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const std::string& root : roots) {
    const fs::path base = fs::path(repo_root) / root;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        out.push_back(
            entry.path().lexically_relative(repo_root).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Violation> lint_file(const std::string& path,
                                 const std::string& rel_path) {
  const std::filesystem::path p(path);
  std::string header;
  if (p.extension() == ".cpp") {
    std::filesystem::path sibling = p;
    sibling.replace_extension(".hpp");
    if (std::filesystem::exists(sibling)) header = read_file(sibling.string());
  }
  return lint_source(read_file(path), rel_path, header);
}

std::vector<Violation> lint_tree(const std::string& repo_root,
                                 const std::vector<std::string>& roots) {
  std::vector<Violation> out;
  for (const std::string& rel : source_files(repo_root, roots))
    for (Violation& v : lint_file(
             (std::filesystem::path(repo_root) / rel).string(), rel))
      out.push_back(std::move(v));
  return out;
}

std::string violations_to_json(const std::vector<Violation>& violations) {
  std::ostringstream os;
  os << "{\"tool\":\"simlint\",\"count\":" << violations.size()
     << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) os << ",";
    os << "{\"file\":" << obs::json_quote(v.file) << ",\"line\":" << v.line
       << ",\"rule\":" << obs::json_quote(v.rule)
       << ",\"message\":" << obs::json_quote(v.message) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace mlcr::simlint
