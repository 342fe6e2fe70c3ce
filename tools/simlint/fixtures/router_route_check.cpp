// Fixture for the router-route-check rule: every Router::route() and
// Router::pick() definition in fleet/router.cpp must validate its placement
// inputs (MLCR_CHECK* or assert) before returning a node index. The rule
// discovers definitions by the `Type::route(` / `Type::pick(` patterns, so a
// newly added Router is covered without touching a table. Linted as
// src/fleet/router.cpp; never compiled.
namespace mlcr::fleet {

std::size_t UncheckedRouter::route(const FleetEnv& fleet,  // VIOLATION router-route-check
                                   const sim::Invocation& inv) {
  return seq_++ % fleet.node_count();
}

std::size_t CheckedRouter::route(const FleetEnv& fleet,
                                 const sim::Invocation& inv) {
  MLCR_CHECK_MSG(fleet.node_count() > 0, "route() over an empty fleet");
  return 0;
}

std::size_t AssertingRouter::route(const FleetEnv& fleet,
                                   const sim::Invocation& inv) {
  assert(fleet.node_count() > 0);
  return fleet.node_count() - 1;
}

// A one-line body with its check still counts as checked.
std::size_t OneLineRouter::route(const FleetEnv& f, const sim::Invocation&) { MLCR_CHECK(f.node_count() > 0); return 0; }

// Declarations and qualified calls are not definitions: never flagged.
std::size_t ForwardRouter::route(const FleetEnv&, const sim::Invocation&);

std::size_t UncheckedRouter::pick(const FleetIndex& index,  // VIOLATION router-route-check
                                  const sim::FunctionTable& functions,
                                  const sim::Invocation& inv) {
  return seq_++ % index.routable_count();
}

std::size_t CheckedRouter::pick(const FleetIndex& index,
                                const sim::FunctionTable& functions,
                                const sim::Invocation& inv) {
  MLCR_CHECK_MSG(index.routable_count() > 0, "pick() over an empty fleet");
  return 0;
}

std::size_t DelegatingRouter::route(const FleetEnv& fleet,
                                    const sim::Invocation& inv) {
  MLCR_CHECK_MSG(fleet.node_count() > 0, "route() over an empty fleet");
  return CheckedRouter::route(fleet, inv);
}

}  // namespace mlcr::fleet
