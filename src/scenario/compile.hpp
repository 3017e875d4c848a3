// Lowering: ScenarioSpec -> testbed::SweepSpec.
//
// The compiler turns a declarative spec into the exact object the sweep
// engine runs: it builds the base workload from the paper generators,
// applies the DSL modifiers (phase-intensity remap, churn filtering,
// capacity rescale), expands variants (per-variant time scale + deep-
// merged experiment overlay), lowers run-fraction times into seconds
// (FaultPlan outages, offload windows), and attaches determinism
// fingerprints. A spec with no modifiers lowers to the plain generator
// scenario under the decoded config; the fig10-13 golden tests pin those
// runs to hashes captured from the hand-coded benches the specs replaced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "testbed/sweep.hpp"
#include "workload/trace.hpp"

namespace aequus::scenario {

/// Scale knobs for reduced-scale (CI) runs of full-size catalog specs.
struct CompileOptions {
  /// Multiplies workload.jobs (0.01 turns the 43,200-job paper trace
  /// into 432 jobs at unchanged load: generation re-targets usage to
  /// capacity whatever the job count).
  double jobs_scale = 1.0;
  std::size_t max_jobs = 0;  ///< post-scale cap; 0 = none
  std::size_t min_jobs = 40; ///< post-scale floor (tiny traces degenerate)
  /// Extra time-compression multiplied into every variant's scale
  /// (0.25 compresses the six-hour window to 90 minutes; service
  /// cadences stay fixed, so simulated chatter shrinks with it).
  double time_scale = 1.0;
  int threads = 0;               ///< sweep threads; 0 = spec/auto
  std::size_t replications = 0;  ///< override; 0 = spec value
};

/// One lowered sweep variant plus the facts the gates need about it.
struct CompiledVariant {
  std::string name;
  double duration_seconds = 0.0;  ///< post-scale scenario window
  /// Resolved fairness backend after all overlays (spec "fairness" key,
  /// experiment, variant) — the comparison emitter's row label.
  std::string backend = "aequus";
  /// No loss/duplication/outage anywhere: exact final conservation is a
  /// meaningful gate ("auto" mode enables it only here).
  bool lossless = true;
};

/// A ready-to-run scenario: the sweep (fingerprinter attached) plus
/// per-variant metadata and the gate selection carried over from the spec.
struct CompiledScenario {
  std::string name;
  std::size_t jobs = 0;  ///< effective per-variant trace size
  testbed::SweepSpec sweep;
  std::vector<CompiledVariant> variants;
  GateSpec gates;
  /// Flight-recorder request carried over from the spec; the runner may
  /// force-enable it (scenario_run --record).
  RecordSpec record;
};

/// The job count a spec resolves to under `options`.
[[nodiscard]] std::size_t effective_jobs(const WorkloadSpec& workload,
                                         const CompileOptions& options);

/// Remap arrival times through the inverse cumulative intensity of a
/// piecewise-constant phase schedule (fractions of `duration`); gaps
/// between declared phases keep rate 1. Durations, users, and relative
/// arrival order are preserved; only submission times move. Throws
/// SpecError if the schedule carries no mass.
[[nodiscard]] workload::Trace remap_arrivals(const workload::Trace& trace,
                                             const std::vector<PhaseSpec>& phases,
                                             double duration);

/// Drop submissions outside each churned user's [join, leave) membership
/// window (fractions of `duration`). Users without churn entries keep
/// every record; a user with several entries is present in the union of
/// its windows.
[[nodiscard]] workload::Trace apply_churn(const workload::Trace& trace,
                                          const std::vector<ChurnSpec>& churn,
                                          double duration);

/// Lower `spec` into a runnable sweep. Throws SpecError on constraints
/// only visible at lowering time (e.g. an offload target outside the
/// cluster count).
[[nodiscard]] CompiledScenario compile(const ScenarioSpec& spec,
                                       const CompileOptions& options = {});

}  // namespace aequus::scenario
