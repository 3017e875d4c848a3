// Shared helpers for the benchmark harnesses.
//
// The evaluation pipeline is the same in most benches: synthesize the
// "historical" national trace from the paper's models, run the paper's
// cleanup filters, partition by user, and (for the modeling benches) fit
// candidate distributions. Scaled-down sizes are chosen so every bench
// finishes in minutes on a laptop; pass a positive integer argv[1] to a
// bench to override the job count (anything else is a usage error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "testbed/experiment.hpp"
#include "testbed/sweep.hpp"
#include "util/strings.hpp"
#include "workload/generator.hpp"
#include "workload/national_model.hpp"
#include "workload/scenarios.hpp"

namespace aequus::bench {

/// Default job counts, tuned for bench runtime (the paper's tests use
/// 43,200-job traces; the statistical results are insensitive to this).
inline constexpr std::size_t kYearTraceJobs = 40000;
inline constexpr std::size_t kTestbedJobs = 43200;
inline constexpr std::size_t kFitSubsample = 3000;

/// Upper bound on --threads: sweeps use a handful of worker threads, and
/// a typo must not ask the machine for thousands.
inline constexpr std::uint64_t kMaxBenchThreads = 256;

/// Parse an optional job-count override from argv: `bench [jobs]`. The
/// job count must be a positive integer. A bad count, an option or a
/// second argument prints a one-line error and exits 2.
[[nodiscard]] std::size_t jobs_from_argv(int argc, char** argv, std::size_t fallback);

/// Command-line options shared by the sweep-capable benches:
///   bench [jobs] [--threads N] [--reps N] [--seed S] [--json-dir DIR]
///         [--no-serial-reference] [--trace FILE] [--trace-cap N] [--metrics FILE]
/// Without --threads the sweep defers to AEQUUS_THREADS, then to the
/// hardware. Strict: a job count, --reps or --threads that is not a
/// positive integer (--threads at most kMaxBenchThreads), an option
/// without a value, an unknown option or a second job count prints a
/// one-line error and exits 2.
struct BenchArgs {
  std::size_t jobs = 0;
  int threads = 0;               ///< 0 = auto (AEQUUS_THREADS / hardware)
  std::size_t replications = 0;  ///< 0 = bench default
  std::uint64_t root_seed = 2014;
  std::string json_dir = ".";
  /// Re-run the sweep single-threaded to report speedup_vs_serial in the
  /// JSON (skipped automatically when the sweep resolves to one thread).
  bool serial_reference = true;
  /// --trace FILE: enable the tracer on each variant's first replication
  /// and write the first task's event stream to FILE as JSON-lines.
  std::string trace_path;
  /// --trace-cap N: tracer ring-buffer capacity for traced tasks (events;
  /// 0 = unbounded). Evictions land in the trace.dropped_events counter.
  std::size_t trace_cap = 1u << 19;
  /// --metrics FILE: dump the merged per-variant registry snapshots as an
  /// aequus-metrics-dump-v1 JSON document ("-" = stdout; validated by
  /// bench_gate.py --validate-metrics-dump). The human-readable table is
  /// printed alongside when writing to a file.
  std::string metrics_path;
};
[[nodiscard]] BenchArgs parse_bench_args(int argc, char** argv, std::size_t fallback_jobs,
                                         std::size_t fallback_replications);

/// A SweepSpec preset for benches: thread/seed overrides applied from the
/// CLI and determinism fingerprints attached (hashes land in the JSON).
[[nodiscard]] testbed::SweepSpec make_sweep(std::vector<testbed::SweepVariant> variants,
                                            const BenchArgs& args);

/// The sweep of catalog scenario `name` (<catalog_dir()>/<name>.json, the
/// one definition of that paper experiment), compiled at args.jobs with
/// --reps (0 keeps the spec's replications), --threads and --seed
/// applied, fingerprints and the --trace hook attached, and full results
/// kept (benches chart replication 0). Variants carry the bench labels:
/// a declared spec variant keeps its own name ("x10"), the implicit one
/// takes the workload base name ("baseline"). A spec that fails to load
/// prints a one-line error and exits 1.
[[nodiscard]] testbed::SweepSpec catalog_sweep(const std::string& name, const BenchArgs& args);

/// Run `spec`, printing a one-line progress note, and — unless disabled —
/// a single-threaded reference sweep of the same spec to measure speedup.
/// `extra` entries (e.g. serial wall time, speedup) are merged into the
/// report written by write_bench_json().
struct SweepRun {
  testbed::SweepResult result;
  std::map<std::string, double> extra;  ///< serial_wall_seconds, speedup_vs_serial
};
[[nodiscard]] SweepRun run_sweep_with_reference(const testbed::SweepSpec& spec,
                                                const BenchArgs& args);

/// Honour --trace / --metrics on a finished sweep: write the first task's
/// trace events to args.trace_path (JSON-lines) and/or dump the merged
/// per-variant metrics snapshots as an aequus-metrics-dump-v1 document
/// to args.metrics_path. No-op when neither flag was given.
void report_observability(const BenchArgs& args, const testbed::SweepResult& result);

/// Per-hop delay decomposition from the causal span trees (tracing on,
/// i.e. --trace given): for each variant's traced replication, rebuild
/// the span trees with obs::analyze_spans and print, per chain, the
/// strict per-hop self-time partition — the hop rows sum to the summed
/// complete-chain durations (verified here to float tolerance, flagged
/// loudly otherwise). Returns extra scalars for write_bench_json():
///   trace.<variant>.complete_chains / broken_chains / dropped_events
///   trace.<variant>.<chain>.mean_s  (mean complete-chain duration)
/// No-op (empty map) without --trace.
[[nodiscard]] std::map<std::string, double> report_trace_analysis(
    const BenchArgs& args, const testbed::SweepSpec& spec, const testbed::SweepResult& result);

/// Render the per-variant aggregate table (mean +- 95 % CI per metric).
void print_aggregates(const testbed::SweepResult& result);

/// Write BENCH_<name>.json into args.json_dir: threads, wall time, the
/// per-variant aggregates (mean/stddev/CI/min/max per metric), per-task
/// seeds + fingerprint hashes, and any `extra` scalars. This is the
/// machine-readable perf trajectory consumed by tools/bench_gate.py.
void write_bench_json(const std::string& bench_name, const BenchArgs& args,
                      const testbed::SweepSpec& spec, const testbed::SweepResult& result,
                      const std::map<std::string, double>& extra = {});

/// The raw "historical" year trace: paper user mix plus injected
/// admin/monitoring (~15 % of records) and zero-duration jobs, matching
/// the share the paper removed prior to modeling.
[[nodiscard]] workload::Trace raw_year_trace(std::size_t jobs = kYearTraceJobs,
                                             std::uint64_t seed = 2012);

/// Subsample `data` to at most `limit` elements (deterministic).
[[nodiscard]] std::vector<double> subsample(const std::vector<double>& data, std::size_t limit,
                                            std::uint64_t seed = 7);

/// Partition U65 arrival times into the four phases (quarter boundaries).
[[nodiscard]] std::vector<std::vector<double>> split_u65_phases(
    const std::vector<double>& arrivals, double window_seconds);

/// Round a seconds value to whole seconds, as the paper's medians are
/// ("the time stamps from the original trace are limited to second
/// accuracy").
[[nodiscard]] long whole_seconds(double seconds);

/// Rescale a scenario's durations so total usage hits target_load of the
/// (possibly modified) capacity. Used when benches shrink cluster counts.
void rescale_to_capacity(workload::Scenario& scenario);

/// Pretty banner for bench output.
void print_banner(const std::string& title, const std::string& paper_reference);

}  // namespace aequus::bench
