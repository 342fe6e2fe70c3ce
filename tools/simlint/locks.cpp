#include "simlint/locks.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

namespace mlcr::simlint {

namespace {

constexpr char kOrderId[] = "lock-order";
constexpr char kDoubleId[] = "lock-double";
constexpr char kLoopId[] = "lock-loop";
constexpr char kBareId[] = "bare-lock";

[[nodiscard]] bool is_raii_guard(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "shared_lock" ||
         t == "scoped_lock";
}

[[nodiscard]] bool is_container_template(const std::string& t) {
  return t == "vector" || t == "deque" || t == "array";
}

[[nodiscard]] bool ends_with(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// Heuristic: does this identifier name a mutex (receiver of a bare
/// .lock()/.unlock() call)?
[[nodiscard]] bool mutex_like_name(const std::string& t) {
  return ends_with(t, "mutex") || ends_with(t, "mutex_") ||
         ends_with(t, "_mutex") || t == "mtx" || t == "mtx_";
}

/// One extracted acquisition target.
struct MutexRef {
  std::string key;  ///< normalized identity ("shard_mutexes_[0]", ...)
  const MutexRankInfo* info = nullptr;  ///< table row, if the mutex is ranked
  std::string index;                    ///< indexed-family subscript text
  bool literal_index = false;
  long literal_value = 0;
};

}  // namespace

const std::vector<MutexRankInfo>& lock_order_table() {
  // DESIGN.md §12 "Concurrency contract": the serving layer's declared order,
  // mirrored at runtime by util::lock_ranks (src/util/lock_audit.hpp).
  static const std::vector<MutexRankInfo> kTable = {
      {"shard_mutexes_", 10, /*indexed=*/true, /*leaf=*/false},
      {"inference_mutex_", 20, /*indexed=*/false, /*leaf=*/false},
      {"index_mutex_", 30, /*indexed=*/false, /*leaf=*/true},
      {"telemetry_mutex_", 40, /*indexed=*/false, /*leaf=*/false},
      {"slot_mutex_", 50, /*indexed=*/false, /*leaf=*/true},
  };
  return kTable;
}

std::vector<Violation> check_lock_discipline(const std::vector<Token>& all,
                                             const std::string& rel_path) {
  // Macro bodies and includes carry no executable acquisitions; dropping
  // directive tokens keeps #define-heavy headers from confusing brace or
  // paren tracking.
  std::vector<Token> toks;
  toks.reserve(all.size());
  for (const Token& t : all)
    if (!t.in_directive) toks.push_back(t);
  const std::size_t n = toks.size();

  static const std::string kEmpty;
  const auto text = [&](std::size_t i) -> const std::string& {
    return i < n ? toks[i].text : kEmpty;
  };
  const auto is_ident = [&](std::size_t i) {
    return i < n && toks[i].kind == Token::Kind::kIdent;
  };
  // Index of the token matching the group opener at `i`, or n.
  const auto match_group = [&](std::size_t i, const char* open,
                               const char* close) -> std::size_t {
    int d = 0;
    for (std::size_t j = i; j < n; ++j) {
      if (text(j) == open) {
        ++d;
      } else if (text(j) == close) {
        --d;
        if (d == 0) return j;
      }
    }
    return n;
  };

  // --- mutex classification --------------------------------------------

  const auto classify = [&](std::size_t b,
                            std::size_t e) -> std::optional<MutexRef> {
    MutexRef ref;
    std::string joined;
    std::string prev_ident;
    std::string member;
    bool any_ident = false;
    for (std::size_t i = b; i < e && i < n; ++i) {
      joined += toks[i].text;
      if (toks[i].kind == Token::Kind::kIdent) {
        any_ident = true;
        if (ref.info == nullptr) {
          for (const MutexRankInfo& row : lock_order_table()) {
            if (!row.indexed || toks[i].text != row.key) continue;
            ref.info = &row;
            if (i + 1 < e && text(i + 1) == "[") {
              const std::size_t close = match_group(i + 1, "[", "]");
              for (std::size_t k = i + 2; k < close && k < e; ++k)
                ref.index += toks[k].text;
              if (close == i + 3 &&
                  toks[i + 2].kind == Token::Kind::kNumber) {
                ref.literal_index = true;
                ref.literal_value =
                    std::strtol(toks[i + 2].text.c_str(), nullptr, 0);
              }
            }
            ref.key = row.key + "[" + ref.index + "]";
          }
        }
        prev_ident = toks[i].text;
      } else if ((toks[i].text == "." || toks[i].text == "->") &&
                 i + 1 < e && is_ident(i + 1)) {
        member = toks[i + 1].text;
      }
    }
    if (!any_ident) return std::nullopt;
    if (ref.info != nullptr) return ref;
    const std::string name = member.empty() ? prev_ident : member;
    for (const MutexRankInfo& row : lock_order_table()) {
      if (!row.indexed && row.key == name) {
        ref.info = &row;
        ref.key = name;
        return ref;
      }
    }
    ref.key = joined;
    return ref;
  };

  // --- live-set simulation ---------------------------------------------

  struct Live {
    MutexRef ref;
    int depth;
    std::size_t line;
  };
  struct LockContainer {
    std::string name;
    int depth;
  };

  std::vector<Violation> out;
  std::vector<Live> live;
  std::vector<LockContainer> containers;
  std::vector<int> loop_brace_depths;  ///< brace depths of open loop bodies
  std::vector<std::size_t> pending_loop_bodies;  ///< token index of body '{'
  int braceless_loops = 0;
  int depth = 0;
  int paren_depth = 0;
  bool in_function = false;
  int function_body_depth = 0;
  bool seen_sort = false;
  bool seen_unique = false;

  const auto note = [&](const char* rule, std::size_t line, std::string msg) {
    out.push_back({rel_path, line, rule, std::move(msg)});
  };

  const auto acquire = [&](const MutexRef& ref, int at_depth,
                           std::size_t line, bool dedup_family) {
    if (dedup_family) {
      for (const Live& l : live)
        if (l.ref.info == ref.info && l.ref.index == "<loop>") return;
    }
    for (const Live& l : live) {
      if (ref.key.empty() || l.ref.key != ref.key) continue;
      note(kDoubleId, line,
           "'" + ref.key + "' is already held (acquired at line " +
               std::to_string(l.line) +
               "); a second acquisition self-deadlocks a non-recursive "
               "mutex");
      live.push_back({ref, at_depth, line});
      return;
    }
    for (const Live& l : live) {
      if (l.ref.info == nullptr || !l.ref.info->leaf) continue;
      note(kOrderId, line,
           "acquiring '" + ref.key + "' while leaf lock '" + l.ref.key +
               "' (line " + std::to_string(l.line) +
               ") is held; the lock-order table marks '" + l.ref.info->key +
               "' as a leaf — nothing may be acquired under it");
      live.push_back({ref, at_depth, line});
      return;
    }
    if (ref.info != nullptr) {
      for (const Live& l : live) {
        if (l.ref.info == nullptr) continue;
        if (l.ref.info->rank > ref.info->rank) {
          note(kOrderId, line,
               "'" + ref.key + "' (rank " + std::to_string(ref.info->rank) +
                   ") acquired while holding '" + l.ref.key + "' (rank " +
                   std::to_string(l.ref.info->rank) + ", line " +
                   std::to_string(l.line) +
                   "); the declared order is shard_mutexes_[i asc] < "
                   "inference_mutex_ < index_mutex_ < telemetry_mutex_ < "
                   "slot_mutex_");
          break;
        }
        if (l.ref.info == ref.info && ref.info->indexed) {
          if (l.ref.literal_index && ref.literal_index) {
            if (ref.literal_value < l.ref.literal_value)
              note(kOrderId, line,
                   "'" + ref.key + "' acquired after '" + l.ref.key +
                       "' (line " + std::to_string(l.line) +
                       "); members of an indexed family must be taken in "
                       "ascending index order");
          } else {
            note(kOrderId, line,
                 "two members of '" + ref.info->key +
                     "' held with indexes that cannot be proven ascending; "
                     "collect the indexes, sort+dedup them, and lock in "
                     "ascending order");
          }
          break;
        }
      }
    }
    live.push_back({ref, at_depth, line});
  };

  // Split the balanced group opening at `open` into top-level argument
  // spans (b, e) — exclusive of the delimiters.
  const auto split_args =
      [&](std::size_t open,
          std::size_t close) -> std::vector<std::pair<std::size_t, std::size_t>> {
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int d = 0;
    std::size_t b = open + 1;
    for (std::size_t j = open; j <= close && j < n; ++j) {
      const std::string& s = text(j);
      if (s == "(" || s == "[" || s == "{" || s == "<") {
        ++d;
      } else if (s == ")" || s == "]" || s == "}" || s == ">") {
        --d;
        if (d == 0) {
          if (j > b) args.push_back({b, j});
          break;
        }
      } else if (s == "," && d == 1) {
        args.push_back({b, j});
        b = j + 1;
      }
    }
    return args;
  };

  const auto span_has_ident = [&](std::size_t b, std::size_t e,
                                  const char* name) {
    for (std::size_t j = b; j < e && j < n; ++j)
      if (toks[j].kind == Token::Kind::kIdent && toks[j].text == name)
        return true;
    return false;
  };

  const auto in_loop = [&] {
    return !loop_brace_depths.empty() || braceless_loops > 0;
  };

  // --- walk --------------------------------------------------------------

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];

    if (t.kind == Token::Kind::kPunct) {
      const std::string& s = t.text;
      if (s == "(" || s == "[") {
        ++paren_depth;
      } else if (s == ")" || s == "]") {
        if (paren_depth > 0) --paren_depth;
      } else if (s == "{") {
        ++depth;
        const auto it = std::find(pending_loop_bodies.begin(),
                                  pending_loop_bodies.end(), i);
        if (it != pending_loop_bodies.end()) {
          loop_brace_depths.push_back(depth);
          pending_loop_bodies.erase(it);
        }
      } else if (s == "}") {
        --depth;
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const Live& l) {
                                    return l.depth > depth;
                                  }),
                   live.end());
        containers.erase(std::remove_if(containers.begin(), containers.end(),
                                        [&](const LockContainer& c) {
                                          return c.depth > depth;
                                        }),
                         containers.end());
        while (!loop_brace_depths.empty() &&
               loop_brace_depths.back() > depth)
          loop_brace_depths.pop_back();
        if (in_function && depth < function_body_depth) {
          in_function = false;
          seen_sort = false;
          seen_unique = false;
          braceless_loops = 0;
        }
      } else if (s == ";") {
        if (paren_depth == 0) braceless_loops = 0;
      }
      continue;
    }

    if (t.kind != Token::Kind::kIdent) continue;
    const std::string& s = t.text;

    // Ascending-order evidence for the loop rule (std::sort + std::unique
    // over the index container before the locking loop).
    if (s == "sort") seen_sort = true;
    if (s == "unique") seen_unique = true;

    // Loop heads: remember where the body starts so guard lifetimes and the
    // accumulation rule know they are inside a loop. The head's own tokens
    // are scanned normally (a lock fact inside a condition still counts).
    if ((s == "for" || s == "while") && text(i + 1) == "(") {
      const std::size_t head_end = match_group(i + 1, "(", ")");
      if (head_end < n) {
        if (text(head_end + 1) == "{")
          pending_loop_bodies.push_back(head_end + 1);
        else
          ++braceless_loops;
      }
      continue;
    }
    if (s == "do" && text(i + 1) == "{") {
      pending_loop_bodies.push_back(i + 1);
      continue;
    }

    // Function boundary: a `name(...)` head followed (after qualifiers,
    // trailing return, or a ctor init list) by `{` opens a function body;
    // evidence flags reset per function.
    if (!in_function && text(i + 1) == "(" && !is_raii_guard(s) &&
        s != "if" && s != "switch" && s != "catch" && s != "return" &&
        s != "sizeof") {
      const std::size_t close = match_group(i + 1, "(", ")");
      std::size_t k = close + 1;
      bool body = false;
      while (k < n) {
        const std::string& q = text(k);
        if (q == "{") {
          body = true;
          break;
        }
        if (q == "const" || q == "noexcept" || q == "override" ||
            q == "final" || q == "mutable" || q == "&" || q == "&&" ||
            q == "::" || q == "->" || q == "," || q == ":" || q == "<" ||
            q == ">" || q == "*" || toks[k].kind == Token::Kind::kIdent) {
          if (q == "noexcept" && text(k + 1) == "(") {
            k = match_group(k + 1, "(", ")") + 1;
            continue;
          }
          ++k;
          continue;
        }
        if (q == "(") {  // ctor init list member initializer
          k = match_group(k, "(", ")") + 1;
          continue;
        }
        break;  // ';', '=', ... — a declaration, not a definition
      }
      if (body) {
        in_function = true;
        function_body_depth = depth + 1;
        seen_sort = false;
        seen_unique = false;
      }
      // fall through: the head tokens still get scanned normally
    }

    // RAII guard declaration: lock_guard/unique_lock/shared_lock/scoped_lock
    // [<...>] name ( args ) — the acquisition facts.
    if (is_raii_guard(s)) {
      std::size_t k = i + 1;
      if (text(k) == "<") {
        const std::size_t g = match_group(k, "<", ">");
        if (g >= n) continue;
        k = g + 1;
      }
      if (is_ident(k) && (text(k + 1) == "(" || text(k + 1) == "{")) {
        const bool paren = text(k + 1) == "(";
        const std::size_t close =
            match_group(k + 1, paren ? "(" : "{", paren ? ")" : "}");
        const auto args = split_args(k + 1, close);
        bool deferred = false;
        for (const auto& [b, e] : args)
          if (span_has_ident(b, e, "defer_lock")) deferred = true;
        if (!deferred && !args.empty()) {
          const std::size_t arg_count = s == "scoped_lock" ? args.size() : 1;
          for (std::size_t a = 0; a < arg_count; ++a) {
            const auto& [b, e] = args[a];
            if (span_has_ident(b, e, "adopt_lock")) continue;
            if (auto ref = classify(b, e))
              acquire(*ref, depth, t.line, /*dedup_family=*/false);
          }
        }
      }
      continue;
    }

    // Deferred-container declaration: vector<...unique_lock...> name —
    // emplaced guards live until the container's scope closes.
    if (is_container_template(s) && text(i + 1) == "<") {
      const std::size_t g = match_group(i + 1, "<", ">");
      bool holds_guards = false;
      for (std::size_t j = i + 2; j < g && j < n; ++j)
        if (toks[j].kind == Token::Kind::kIdent && is_raii_guard(toks[j].text))
          holds_guards = true;
      if (holds_guards && is_ident(g + 1))
        containers.push_back({toks[g + 1].text, depth});
      continue;
    }

    // Accumulating acquisition: lock_container.emplace_back(mutex).
    if ((text(i + 1) == "." || text(i + 1) == "->") &&
        (text(i + 2) == "emplace_back" || text(i + 2) == "push_back") &&
        text(i + 3) == "(") {
      const LockContainer* container = nullptr;
      for (const LockContainer& c : containers)
        if (c.name == s) container = &c;
      if (container != nullptr) {
        const std::size_t close = match_group(i + 3, "(", ")");
        const auto args = split_args(i + 3, close);
        if (!args.empty()) {
          if (auto ref = classify(args[0].first, args[0].second)) {
            const bool accumulating_family = in_loop() &&
                                             ref->info != nullptr &&
                                             ref->info->indexed &&
                                             !ref->literal_index;
            if (accumulating_family) {
              if (!seen_sort || !seen_unique) {
                note(kLoopId, t.line,
                     "locking members of '" + ref->info->key +
                         "' in a loop without first sorting and deduplicating "
                         "the indexes; out-of-order acquisition across "
                         "workers deadlocks — sort+unique the shard list, "
                         "then lock ascending");
              } else {
                MutexRef family = *ref;
                family.index = "<loop>";
                family.key = family.info->key + "[<loop>]";
                acquire(family, container->depth, t.line,
                        /*dedup_family=*/true);
              }
            } else {
              acquire(*ref, container->depth, t.line, /*dedup_family=*/false);
            }
          }
        }
      }
      continue;
    }

    // Bare .lock()/.unlock()/.try_lock() on a mutex: RAII only.
    if ((text(i + 1) == "." || text(i + 1) == "->") &&
        (text(i + 2) == "lock" || text(i + 2) == "unlock" ||
         text(i + 2) == "try_lock") &&
        text(i + 3) == "(" && mutex_like_name(s)) {
      note(kBareId, toks[i + 2].line,
           "bare ." + text(i + 2) + "() on '" + s +
               "'; acquire through an RAII guard (lock_guard / unique_lock / "
               "shared_lock / scoped_lock) so every exit path releases");
    }
  }
  return out;
}

}  // namespace mlcr::simlint
