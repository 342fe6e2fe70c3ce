// Lock-discipline checker over the simlint tokenizer (DESIGN.md §12).
//
// Per function, the checker extracts every lock acquisition — RAII guards
// (`lock_guard` / `unique_lock` / `shared_lock` / `scoped_lock`, including
// `std::defer_lock` which acquires nothing) and deferred-container
// accumulation (`locks.emplace_back(mutex)` into a vector of guards) — and
// simulates the live set against brace scopes. Acquisitions are checked
// against the declared lock-order table, which mirrors DESIGN.md §11's
// locking model for the serving layer:
//
//   shard_mutexes_[i] < shard_mutexes_[j] (i < j) < inference_mutex_
//                                                 < index_mutex_ (leaf)
//
// The fleet index lock is a *leaf*: acquiring anything while it is held is
// an ordering violation. Mutexes the table does not name carry no rank — they
// are still covered by the double-acquisition and bare-call rules, so the
// checker runs over the whole tree (src/, tests/, bench/, examples/), not
// just src/serve.
//
// Rules:
//   lock-order   rank-descending acquisition, descending literal indexes
//                within an indexed family, or any acquisition over a leaf
//   lock-double  the same mutex acquired again while already held
//   lock-loop    accumulating indexed-family locks in a loop without prior
//                sort+unique (ascending-order evidence) in the function
//   bare-lock    .lock()/.unlock()/.try_lock() called directly on a mutex
//                instead of through an RAII guard
//
// The static table is cross-checked at runtime by util::LockOrderValidator
// (src/util/lock_audit.hpp), whose registered ranks encode the same order.
#pragma once

#include <string>
#include <vector>

#include "simlint/lint.hpp"
#include "simlint/token.hpp"

namespace mlcr::simlint {

/// One row of the declared lock-order table. Lower rank = acquired earlier.
/// `indexed` rows are mutex families (`name[i]`) whose members must be taken
/// in ascending index order; a `leaf` must be the innermost lock held.
struct MutexRankInfo {
  std::string key;
  int rank = 0;
  bool indexed = false;
  bool leaf = false;
};

/// The declared table (exposed so tests and docs can pin it against
/// DESIGN.md §11 and the runtime validator's registered ranks).
[[nodiscard]] const std::vector<MutexRankInfo>& lock_order_table();

/// Run the lock-discipline analysis over one tokenized translation unit.
[[nodiscard]] std::vector<Violation> check_lock_discipline(
    const std::vector<Token>& tokens, const std::string& rel_path);

}  // namespace mlcr::simlint
