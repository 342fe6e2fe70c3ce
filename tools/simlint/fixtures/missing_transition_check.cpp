// Fixture for the missing-transition-check rule. Linted with pretend path
// "src/sim/env.cpp", so the transition table expects ClusterEnv::offer,
// step, advance_to, finish_streaming, crash and recover to validate
// state. Here offer() and step() have no check (each fires once);
// advance_to / crash (MLCR_CHECK) and finish_streaming / recover
// (MLCR_AUDIT point) are covered.
struct Invocation {
  double arrival_s = 0.0;
};
struct Action {};
struct StepResult {};

#define MLCR_CHECK(cond) (void)(cond)
#define MLCR_AUDIT_POINT(expr) (void)0

class ClusterEnv {
 public:
  void offer(Invocation inv);
  StepResult step(const Action& action);
  void advance_to(double time);
  void finish_streaming();
  void crash(double time);
  void recover(double time);
  void audit() const {}

 private:
  double last_arrival_ = 0.0;
  bool down_ = false;
};

void ClusterEnv::offer(Invocation inv) {  // VIOLATION missing-transition-check
  last_arrival_ = inv.arrival_s;
}

// The report lands on the line naming the function:
StepResult ClusterEnv::step(const Action& a) {  // VIOLATION missing-transition-check
  (void)a;
  return StepResult{};
}

void ClusterEnv::advance_to(double time) {
  MLCR_CHECK(time >= last_arrival_);
  last_arrival_ = time;
}

void ClusterEnv::finish_streaming() { MLCR_AUDIT_POINT(audit()); }

void ClusterEnv::crash(double time) {
  MLCR_CHECK(!down_ && time >= last_arrival_);
  down_ = true;
}

void ClusterEnv::recover(double time) {
  (void)time;
  down_ = false;
  MLCR_AUDIT_POINT(audit());
}
