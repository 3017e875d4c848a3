#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "json/json.hpp"
#include "obs/span_analysis.hpp"
#include "obs/trace.hpp"
#include "scenario/catalog.hpp"
#include "testing/determinism.hpp"
#include "util/rng.hpp"

namespace aequus::bench {

namespace {
/// Print a one-line usage error and exit 2, the usual code for bad usage.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

/// `text` as a whole unsigned decimal integer in [min, max]; anything
/// else (empty, a sign, trailing characters, out of range) is a usage
/// error naming `what`.
std::uint64_t parse_count(const char* what, const char* text, std::uint64_t min,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end || stop == text || value < min || value > max) {
    usage_error(util::format("%s must be an integer in [%llu, %llu], got '%s'", what,
                             static_cast<unsigned long long>(min),
                             static_cast<unsigned long long>(max), text));
  }
  return value;
}

/// A positional argument (the job count) rather than an option: it does
/// not start with '-', or it is a negative number.
bool positional(const char* arg) {
  return arg[0] != '-' || (arg[1] >= '0' && arg[1] <= '9');
}

constexpr std::uint64_t kMaxJobs = 100'000'000;
constexpr std::uint64_t kMaxReps = 1'000'000;

/// Honour --trace: trace each variant's first replication (tasks are
/// variant-major, so that is task_index % replications == 0); tracing
/// every replication would multiply the buffers for no analytical gain.
/// The ring cap bounds memory on long runs — evictions show up as
/// trace.dropped_events and as unmatched ends in the analysis.
void attach_trace_hook(testbed::SweepSpec& spec, const BenchArgs& args) {
  if (args.trace_path.empty()) return;
  const std::size_t replications = spec.replications;
  const std::size_t cap = args.trace_cap;
  spec.on_setup = [replications, cap](testbed::Experiment& experiment, std::size_t task_index) {
    if (task_index % replications == 0) {
      experiment.tracer().set_capacity(cap);
      experiment.tracer().enable();
    }
  };
}
}  // namespace

std::size_t jobs_from_argv(int argc, char** argv, std::size_t fallback) {
  if (argc < 2) return fallback;
  if (!positional(argv[1])) usage_error(util::format("unknown option '%s'", argv[1]));
  if (argc > 2) usage_error(util::format("unexpected argument '%s'", argv[2]));
  return static_cast<std::size_t>(parse_count("job count", argv[1], 1, kMaxJobs));
}

BenchArgs parse_bench_args(int argc, char** argv, std::size_t fallback_jobs,
                           std::size_t fallback_replications) {
  BenchArgs args;
  args.jobs = fallback_jobs;
  args.replications = fallback_replications;
  bool have_jobs = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        usage_error(util::format("option '%s' needs a value", arg));
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--threads") == 0) {
      args.threads = static_cast<int>(parse_count("--threads", value(), 1, kMaxBenchThreads));
    } else if (std::strcmp(arg, "--reps") == 0) {
      args.replications = static_cast<std::size_t>(parse_count("--reps", value(), 1, kMaxReps));
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* text = value();
      char* end = nullptr;
      errno = 0;
      args.root_seed = std::strtoull(text, &end, 0);
      if (errno != 0 || *end != '\0' || text[0] == '-' || text[0] == '+') {
        usage_error(util::format("--seed must be an unsigned integer, got '%s'", text));
      }
    } else if (std::strcmp(arg, "--json-dir") == 0) {
      args.json_dir = value();
    } else if (std::strcmp(arg, "--no-serial-reference") == 0) {
      args.serial_reference = false;
    } else if (std::strcmp(arg, "--trace") == 0) {
      args.trace_path = value();
    } else if (std::strcmp(arg, "--trace-cap") == 0) {
      args.trace_cap = static_cast<std::size_t>(
          parse_count("--trace-cap", value(), 0, std::numeric_limits<std::uint32_t>::max()));
    } else if (std::strcmp(arg, "--metrics") == 0) {
      args.metrics_path = value();
    } else if (positional(arg)) {
      if (have_jobs) usage_error(util::format("unexpected argument '%s'", arg));
      args.jobs = static_cast<std::size_t>(parse_count("job count", arg, 1, kMaxJobs));
      have_jobs = true;
    } else {
      usage_error(util::format("unknown option '%s'", arg));
    }
  }
  return args;
}

testbed::SweepSpec make_sweep(std::vector<testbed::SweepVariant> variants,
                              const BenchArgs& args) {
  testbed::SweepSpec spec;
  spec.variants = std::move(variants);
  spec.replications = args.replications > 0 ? args.replications : 1;
  spec.root_seed = args.root_seed;
  spec.threads = args.threads;
  testing::attach_fingerprints(spec);
  attach_trace_hook(spec, args);
  return spec;
}

testbed::SweepSpec catalog_sweep(const std::string& name, const BenchArgs& args) {
  try {
    scenario::ScenarioSpec spec = scenario::load_spec_file(
        (std::filesystem::path(scenario::catalog_dir()) / (name + ".json")).string());
    spec.workload.jobs = args.jobs;
    scenario::CompileOptions options;
    options.min_jobs = 0;  // the argv job count is exact
    options.threads = args.threads;
    options.replications = args.replications;
    testbed::SweepSpec sweep = scenario::compile(spec, options).sweep;
    for (std::size_t i = 0; i < sweep.variants.size(); ++i) {
      sweep.variants[i].name = spec.variants.empty() ? spec.workload.base : spec.variants[i].name;
    }
    sweep.root_seed = args.root_seed;
    sweep.keep_results = true;
    attach_trace_hook(sweep, args);
    return sweep;
  } catch (const scenario::SpecError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(1);
  }
}

SweepRun run_sweep_with_reference(const testbed::SweepSpec& spec, const BenchArgs& args) {
  SweepRun run;
  const int threads = testbed::resolve_thread_count(spec.threads);
  std::printf("sweep: %zu variant(s) x %zu replication(s) on %d thread(s)...\n",
              spec.variants.size(), spec.replications, threads);
  run.result = testbed::run_sweep(spec);
  std::printf("sweep done in %.2f s wall\n", run.result.wall_seconds);
  if (args.serial_reference && run.result.threads_used > 1) {
    testbed::SweepSpec serial = spec;
    serial.threads = 1;
    serial.keep_results = false;  // the reference only contributes wall time
    std::printf("serial reference sweep (--threads 1)...\n");
    const testbed::SweepResult reference = testbed::run_sweep(serial);
    std::printf("serial reference done in %.2f s wall\n", reference.wall_seconds);
    run.extra["serial_wall_seconds"] = reference.wall_seconds;
    if (run.result.wall_seconds > 0.0) {
      run.extra["speedup_vs_serial"] = reference.wall_seconds / run.result.wall_seconds;
      std::printf("speedup vs serial at %d threads: %.2fx\n\n", run.result.threads_used,
                  run.extra["speedup_vs_serial"]);
    }
  }
  return run;
}

void report_observability(const BenchArgs& args, const testbed::SweepResult& result) {
  if (!args.trace_path.empty()) {
    const auto traced = std::find_if(result.tasks.begin(), result.tasks.end(),
                                     [](const auto& task) { return !task.result.trace.empty(); });
    if (traced == result.tasks.end()) {
      std::fprintf(stderr, "warning: no trace events collected (keep_results off?)\n");
    } else {
      std::ofstream out(args.trace_path);
      if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", args.trace_path.c_str());
      } else {
        obs::write_jsonl(out, traced->result.trace);
        std::printf("wrote %zu trace events to %s\n", traced->result.trace.size(),
                    args.trace_path.c_str());
      }
    }
  }
  if (!args.metrics_path.empty()) {
    json::Object snapshots;
    for (const auto& [variant, snapshot] : result.obs) {
      snapshots[variant] = snapshot.to_json();
    }
    json::Object dump;
    dump["schema"] = "aequus-metrics-dump-v1";
    dump["source"] = "bench";
    dump["snapshots"] = json::Value(std::move(snapshots));
    const json::Value document = json::Value(std::move(dump));
    if (args.metrics_path == "-") {
      std::printf("%s\n", document.pretty().c_str());
    } else {
      std::ofstream out(args.metrics_path);
      if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", args.metrics_path.c_str());
      } else {
        out << document.pretty() << "\n";
        // Keep the human-readable table when the JSON goes to a file.
        for (const auto& [variant, snapshot] : result.obs) {
          std::printf("metrics %s:\n", variant.c_str());
          for (const auto& [key, value] : snapshot.counters) {
            std::printf("  %-40s %llu\n", key.c_str(), static_cast<unsigned long long>(value));
          }
          for (const auto& [key, gauge] : snapshot.gauges) {
            std::printf("  %-40s last=%.6g mean=%.6g (n=%llu)\n", key.c_str(), gauge.last,
                        gauge.mean(), static_cast<unsigned long long>(gauge.samples));
          }
          for (const auto& [key, histogram] : snapshot.histograms) {
            std::printf("  %-40s n=%llu mean=%.6g [%.6g, %.6g]\n", key.c_str(),
                        static_cast<unsigned long long>(histogram.count), histogram.mean(),
                        histogram.min, histogram.max);
          }
        }
        std::printf("metrics dump written to %s\n\n", args.metrics_path.c_str());
      }
    }
  }
}

std::map<std::string, double> report_trace_analysis(const BenchArgs& args,
                                                    const testbed::SweepSpec& spec,
                                                    const testbed::SweepResult& result) {
  std::map<std::string, double> extra;
  if (args.trace_path.empty()) return extra;
  for (std::size_t variant_index = 0; variant_index < spec.variants.size(); ++variant_index) {
    const std::string& variant = spec.variants[variant_index].name;
    const testbed::SweepTaskResult* traced = nullptr;
    for (const auto* task : result.tasks_of(variant_index)) {
      if (!task->result.trace.empty()) {
        traced = task;
        break;
      }
    }
    if (traced == nullptr) continue;
    const obs::TraceAnalysis analysis = obs::analyze_spans(traced->result.trace);
    std::printf("per-hop delay decomposition, variant %s (replication %zu, %zu spans):\n",
                variant.c_str(), traced->replication, analysis.spans.size());
    std::size_t complete_chains = 0;
    for (const auto& [chain, stats] : analysis.chains) {
      complete_chains += stats.complete;
      if (stats.complete == 0 && stats.broken == 0) continue;
      std::printf("  chain %-20s %7zu complete %5zu broken   mean %10.4f s\n", chain.c_str(),
                  stats.complete, stats.broken, stats.mean_duration());
      double hop_sum = 0.0;
      for (const auto& [hop, self] : stats.hop_self_time) {
        hop_sum += self;
        const double share =
            stats.total_duration > 0.0 ? 100.0 * self / stats.total_duration : 0.0;
        std::printf("    %-24s %7zu spans  %12.4f s self  %5.1f%%\n", hop.c_str(),
                    stats.hop_spans.count(hop) ? stats.hop_spans.at(hop) : 0, self, share);
      }
      // Strict-partition identity: the hop rows repartition the summed
      // complete-chain durations, so they must add back up (within float
      // accumulation error). A violation means the analyzer and tracer
      // disagree about the span tree — worth shouting about.
      const double tolerance = 1e-6 * std::max(1.0, stats.total_duration);
      if (std::fabs(hop_sum - stats.total_duration) > tolerance) {
        std::fprintf(stderr,
                     "warning: variant %s chain %s: hop self times sum to %.9f s "
                     "but complete chains total %.9f s\n",
                     variant.c_str(), chain.c_str(), hop_sum, stats.total_duration);
      }
      extra["trace." + variant + "." + chain + ".mean_s"] = stats.mean_duration();
    }
    if (analysis.orphan_spans > 0 || analysis.retry_storms > 0 ||
        analysis.duplicate_ends > 0 || analysis.unmatched_ends > 0) {
      std::printf("  anomalies: %zu orphan spans, %zu retry storms, %zu duplicate ends, "
                  "%zu unmatched ends\n",
                  analysis.orphan_spans, analysis.retry_storms, analysis.duplicate_ends,
                  analysis.unmatched_ends);
    }
    extra["trace." + variant + ".complete_chains"] = static_cast<double>(complete_chains);
    extra["trace." + variant + ".broken_chains"] = static_cast<double>(analysis.broken_chains);
    extra["trace." + variant + ".dropped_events"] =
        static_cast<double>(traced->obs.counter("trace.dropped_events"));
  }
  if (!extra.empty()) std::printf("\n");
  return extra;
}

void print_aggregates(const testbed::SweepResult& result) {
  for (const auto& [variant, metrics] : result.aggregates) {
    std::printf("variant %s (n=%zu):\n", variant.c_str(),
                metrics.empty() ? 0 : metrics.begin()->second.count);
    for (const auto& [metric, summary] : metrics) {
      std::printf("  %-24s %12.4f +- %-10.4f [%.4f, %.4f]\n", metric.c_str(), summary.mean,
                  summary.ci95_half, summary.min, summary.max);
    }
  }
  std::printf("\n");
}

void write_bench_json(const std::string& bench_name, const BenchArgs& args,
                      const testbed::SweepSpec& spec, const testbed::SweepResult& result,
                      const std::map<std::string, double>& extra) {
  json::Object root;
  root["bench"] = bench_name;
  root["schema_version"] = 1;
  root["jobs"] = args.jobs;
  root["threads"] = result.threads_used;
  root["replications"] = spec.replications;
  root["root_seed"] = util::format("0x%llx", static_cast<unsigned long long>(spec.root_seed));
  root["wall_seconds"] = result.wall_seconds;

  json::Object extras;
  for (const auto& [key, value] : extra) extras[key] = value;
  root["extra"] = json::Value(std::move(extras));

  json::Object variants;
  for (const auto& [variant, metrics] : result.aggregates) {
    json::Object metric_obj;
    for (const auto& [metric, summary] : metrics) {
      json::Object s;
      s["count"] = summary.count;
      s["mean"] = summary.mean;
      s["stddev"] = summary.stddev;
      s["ci95_half"] = summary.ci95_half;
      s["min"] = summary.min;
      s["max"] = summary.max;
      metric_obj[metric] = json::Value(std::move(s));
    }
    json::Object variant_obj;
    variant_obj["metrics"] = json::Value(std::move(metric_obj));
    // Merged metrics snapshot, histogram bucket layouts included — the
    // source of truth tools/trace_analyze --report and bench_gate.py read
    // histogram bounds from.
    const auto obs_it = result.obs.find(variant);
    if (obs_it != result.obs.end() && !obs_it->second.empty()) {
      variant_obj["obs"] = obs_it->second.to_json();
    }
    variants[variant] = json::Value(std::move(variant_obj));
  }
  root["variants"] = json::Value(std::move(variants));

  json::Array tasks;
  for (const auto& task : result.tasks) {
    json::Object t;
    t["variant"] = spec.variants[task.variant_index].name;
    t["replication"] = task.replication;
    t["seed"] = util::format("0x%llx", static_cast<unsigned long long>(task.seed));
    t["wall_seconds"] = task.wall_seconds;
    if (!task.fingerprint.empty()) {
      t["fingerprint_hash"] = util::format(
          "0x%016llx", static_cast<unsigned long long>(util::fnv1a64(task.fingerprint)));
    }
    tasks.push_back(json::Value(std::move(t)));
  }
  root["tasks"] = json::Value(std::move(tasks));

  const std::string path = args.json_dir + "/BENCH_" + bench_name + ".json";
  std::error_code ec;
  std::filesystem::create_directories(args.json_dir, ec);  // best effort; open reports failure
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << json::Value(std::move(root)).pretty() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

workload::Trace raw_year_trace(std::size_t jobs, std::uint64_t seed) {
  const auto model = workload::NationalGridModel::paper_2012();
  workload::GeneratorConfig config;
  config.total_jobs = jobs;
  config.seed = seed;
  // Extra records on top of the regular jobs: tuned so the cleanup removes
  // ~15 % of records carrying ~1.5 % of usage (§IV-1).
  config.admin_job_fraction = 0.150;
  config.zero_duration_fraction = 0.027;
  config.admin_duration_lo = 600.0;
  config.admin_duration_hi = 21600.0;
  return workload::generate_trace(model, config);
}

std::vector<double> subsample(const std::vector<double>& data, std::size_t limit,
                              std::uint64_t seed) {
  if (data.size() <= limit) return data;
  util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(limit);
  // Stride sampling with random phase keeps the subsample spread evenly.
  const double stride = static_cast<double>(data.size()) / static_cast<double>(limit);
  double position = rng.uniform() * stride;
  for (std::size_t i = 0; i < limit; ++i) {
    out.push_back(data[static_cast<std::size_t>(position) % data.size()]);
    position += stride;
  }
  return out;
}

std::vector<std::vector<double>> split_u65_phases(const std::vector<double>& arrivals,
                                                  double window_seconds) {
  std::vector<std::vector<double>> phases(4);
  for (double t : arrivals) {
    auto index = static_cast<std::size_t>(t / (window_seconds / 4.0));
    if (index > 3) index = 3;
    phases[index].push_back(t);
  }
  return phases;
}

long whole_seconds(double seconds) {
  return std::lround(seconds);
}

void rescale_to_capacity(workload::Scenario& scenario) {
  const double target = scenario.target_load * scenario.capacity_core_seconds();
  const double current = scenario.trace.total_usage();
  if (current <= 0.0) return;
  for (auto& record : scenario.trace.records()) record.duration *= target / current;
}

void print_banner(const std::string& title, const std::string& paper_reference) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace aequus::bench
