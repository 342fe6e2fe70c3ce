#include "fleet/event_core.hpp"

#include "util/check.hpp"

namespace mlcr::fleet {

EventCore::EventCore(std::size_t nodes,
                     const std::vector<FleetEnv::FaultEvent>& faults)
    : faults_(faults), versions_(nodes, 0) {}

void EventCore::reschedule(std::size_t node, std::optional<double> next) {
  MLCR_CHECK(node < versions_.size());
  ++versions_[node];
  if (next) heap_.push({*next, node, versions_[node]});
}

std::optional<EventCore::Event> EventCore::pop_due(double t) {
  while (!heap_.empty() && heap_.top().version != versions_[heap_.top().node])
    heap_.pop();
  const bool fault_due =
      next_fault_ < faults_.size() && faults_[next_fault_].time <= t;
  const bool advance_due = !heap_.empty() && heap_.top().time <= t;
  if (fault_due &&
      (!advance_due || faults_[next_fault_].time <= heap_.top().time)) {
    const FleetEnv::FaultEvent& ev = faults_[next_fault_++];
    return Event{&ev, ev.node, ev.time};
  }
  if (!advance_due) return std::nullopt;
  const Entry e = heap_.top();
  heap_.pop();
  // The host's reschedule() after the advance pushes the node's next event.
  return Event{nullptr, e.node, e.time};
}

}  // namespace mlcr::fleet
