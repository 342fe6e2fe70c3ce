// Fixture for the fault-rng-stream rule. Linted with pretend path
// "src/faults/fault_rng_stream.cpp" (in scope) and "src/core/..." (out of
// scope, must stay quiet): util::Rng constructed from a literal seed, or
// default-constructed from the hidden default seed, in fault-handling code
// decouples injected faults (and the sampled domain schedule) from the
// episode seed, and the zero-correlation replay oracle no longer holds.
namespace util {
class Rng {
 public:
  Rng() = default;
  explicit Rng(unsigned long long seed) { (void)seed; }
  Rng split() { return Rng(); }
};
}  // namespace util

struct Episode {
  unsigned long long seed = 1;
};

void bad_literal_seeds() {
  util::Rng rng(42);              // VIOLATION fault-rng-stream
  util::Rng hex(0xC0FFEEULL);     // VIOLATION fault-rng-stream
  util::Rng braced{7};            // VIOLATION fault-rng-stream
  (void)rng;
  (void)hex;
  (void)braced;
}

void bad_adhoc_generators() {
  util::Rng rng;       // VIOLATION fault-rng-stream
  util::Rng braced{};  // VIOLATION fault-rng-stream
  (void)rng;
  (void)braced;
}

void good_derived_streams(util::Rng& master, const Episode& episode) {
  // Splitting the caller's stream (one child per concern, in a fixed draw
  // order) or forwarding a seed variable keeps fault injection a pure
  // function of the episode.
  util::Rng stream = master.split();
  util::Rng seeded(episode.seed);
  util::Rng& borrowed = master;
  (void)stream;
  (void)seeded;
  (void)borrowed;
}
