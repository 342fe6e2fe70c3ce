// The fleet's event core (DESIGN.md §10): one lazily-invalidated heap entry
// per node holds the node's next self-scheduled event (a completion or a TTL
// expiry), merged by time with the plan's pre-sorted crash/recover list.
// FleetEnv::run and serve::SchedulerService::run_replay both drive it, so
// the two replay the same event order by construction; each host fires the
// events itself (tracer versus telemetry).
//
// Order: earliest time first; at equal times fault events fire before node
// advances (so routing at an arrival sees every fault due by then), and
// node advances fire in node-index order. Entries are stamped with a
// per-node version and stale ones are discarded on pop, so a node touch is
// O(log nodes), never a heap rebuild.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "fleet/fleet_env.hpp"

namespace mlcr::fleet {

class EventCore {
 public:
  /// `faults` is borrowed (FleetEnv::fault_events()) and must outlive the
  /// core. No node has an entry until its first reschedule().
  EventCore(std::size_t nodes, const std::vector<FleetEnv::FaultEvent>& faults);

  /// Replace `node`'s entry with its next self-scheduled event, or drop it
  /// when `next` is empty. Call after every event that touches the node.
  void reschedule(std::size_t node, std::optional<double> next);

  /// One due event: a fault transition (`fault` set), or advancing `node`
  /// to `time`.
  struct Event {
    const FleetEnv::FaultEvent* fault = nullptr;
    std::size_t node = 0;
    double time = 0.0;
  };

  /// Remove and return the earliest event due at or before `t`; nullopt
  /// when nothing is due. The host fires it and reschedules every node it
  /// touched before the next call.
  [[nodiscard]] std::optional<Event> pop_due(double t);

  /// Position of the first fault not yet popped: the episode tail fires the
  /// rest, clamped to each node's clock.
  [[nodiscard]] std::size_t next_fault() const noexcept { return next_fault_; }

 private:
  struct Entry {
    double time;
    std::size_t node;
    std::uint64_t version;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;  // min-heap on time
      return a.node > b.node;                        // deterministic ties
    }
  };

  const std::vector<FleetEnv::FaultEvent>& faults_;
  std::size_t next_fault_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<std::uint64_t> versions_;
};

}  // namespace mlcr::fleet
