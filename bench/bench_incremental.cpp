// Incremental-engine speedup bench: per-delta cost of the stateful
// FairshareEngine (dirty-path recompute + snapshot publish) against the
// whole-tree FairshareAlgorithm::compute() it replaced, on the fig10
// shape (six clusters x 40 users). Also measures the overhead of the
// batch compute() wrapper — now a throwaway engine under the hood —
// against a frozen copy of the original recursive annotate(), pinning
// the "batch callers pay (almost) nothing for the rework" contract.
//
// All timings are min-over-rounds (--reps, default 5): the minimum is
// the least noisy location statistic for a cold-cache-free micro timing.
// Emits BENCH_incremental.json; the two ratio metrics are gated
// one-sided by tools/bench_gate.py (speedup floor, overhead ceiling) —
// ratios of wall times on the same machine are comparable across hosts
// in a way the absolute microseconds are not.
//
// A second mode drives the arena-engine scale rows (DESIGN.md §6h):
//
//   bench_incremental --leaves N[,N...] [deltas] [--reps N] ...
//
// builds an N-leaf tree per requested size (the fig10 shape stretched —
// wide sibling fans are exactly where the SoA arenas pay off), replays
// the identical delta stream through the frozen map-backed engine
// (testing::ReferenceMapEngine) and the arena engine, checks the two
// checksums agree bitwise, and emits BM_-style per-size rows into
// BENCH_incremental_scale.json with the arena-vs-map speedup gated by
// its own baseline. The scale rows time each round with this thread's
// CPU clock (CLOCK_THREAD_CPUTIME_ID), still taking the minimum over
// rounds: when other processes share the cores, a descheduled bench
// thread stretches a wall-clock interval but not its CPU time, so the
// ratio stays meaningful under load. Without --leaves the classic fig10
// report is emitted unchanged.
//
//   bench_incremental [deltas] [--reps N] [--seed S] [--json-dir DIR]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "json/json.hpp"
#include "testing/reference_engine.hpp"
#include "util/rng.hpp"

using namespace aequus;

namespace {

constexpr std::size_t kClusters = 6;
constexpr std::size_t kUsersPerCluster = 40;

// Frozen copy of the pre-engine recursive annotate() (the same reference
// the engine differential test pins bit-identity against) — the honest
// baseline for the wrapper-overhead ratio, since the live compute() now
// routes through the engine itself.
void reference_annotate(const core::FairshareAlgorithm& algorithm,
                        const core::PolicyTree::Node& policy_node, const core::UsageTree& usage,
                        std::vector<std::string>& prefix, core::FairshareTree::Node& out) {
  out.name = policy_node.name;
  double share_total = 0.0;
  for (const auto& child : policy_node.children) share_total += std::max(child.share, 0.0);
  double usage_total = 0.0;
  std::vector<double> child_usage(policy_node.children.size(), 0.0);
  for (std::size_t i = 0; i < policy_node.children.size(); ++i) {
    prefix.push_back(policy_node.children[i].name);
    child_usage[i] = usage.usage(core::join_path(prefix));
    prefix.pop_back();
    usage_total += child_usage[i];
  }
  out.children.resize(policy_node.children.size());
  for (std::size_t i = 0; i < policy_node.children.size(); ++i) {
    const auto& policy_child = policy_node.children[i];
    auto& child_out = out.children[i];
    child_out.policy_share =
        share_total > 0.0 ? std::max(policy_child.share, 0.0) / share_total : 0.0;
    child_out.usage_share = usage_total > 0.0 ? child_usage[i] / usage_total : 0.0;
    child_out.distance =
        algorithm.node_distance(child_out.policy_share, child_out.usage_share);
    prefix.push_back(policy_child.name);
    reference_annotate(algorithm, policy_child, usage, prefix, child_out);
    prefix.pop_back();
  }
}

std::string user_path(std::size_t cluster, std::size_t user) {
  return "/grid/cluster" + std::to_string(cluster) + "/user" + std::to_string(user);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// CPU time the calling thread has used, in seconds.
double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

struct Delta {
  std::string path;
  double amount = 0.0;
};

/// "10k" / "100k" / "1m" for the variant keys and BM_ row labels.
std::string size_label(std::size_t leaves) {
  if (leaves >= 1000000 && leaves % 1000000 == 0)
    return std::to_string(leaves / 1000000) + "m";
  if (leaves >= 1000 && leaves % 1000 == 0) return std::to_string(leaves / 1000) + "k";
  return std::to_string(leaves);
}

void write_report(const std::string& bench_name, const bench::BenchArgs& args,
                  std::size_t deltas, std::size_t rounds, double wall_seconds,
                  json::Object variants) {
  json::Object root;
  root["bench"] = bench_name;
  root["schema_version"] = 1;
  root["jobs"] = deltas;
  root["threads"] = 1;
  root["replications"] = rounds;
  root["root_seed"] = util::format("0x%llx", static_cast<unsigned long long>(args.root_seed));
  root["wall_seconds"] = wall_seconds;
  root["variants"] = json::Value(std::move(variants));

  const std::string path = args.json_dir + "/BENCH_" + bench_name + ".json";
  std::error_code ec;
  std::filesystem::create_directories(args.json_dir, ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << json::Value(std::move(root)).pretty() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Arena-vs-map scale rows: one variant per requested leaf count, the
/// same delta stream through both engines, speedup = map time / arena
/// time. Exits nonzero if the engines' checksums ever diverge — the
/// bench doubles as a coarse differential check at sizes the property
/// test cannot afford.
int run_scale_bench(const bench::BenchArgs& args, const std::vector<std::size_t>& sizes) {
  const std::size_t deltas = args.jobs;
  const std::size_t rounds = args.replications;
  json::Object variants;
  const auto bench_start = std::chrono::steady_clock::now();

  for (const std::size_t target : sizes) {
    // Three levels of ~cbrt(n) siblings (site -> cluster -> user): the
    // realistic shape for very large populations, and the one where a
    // usage delta's dirty path stays narrow — a flat million-wide fan
    // would make *every* update O(n) in snapshot-node copies for any
    // engine, measuring allocator throughput instead of the engines.
    const std::size_t fan = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::lround(std::cbrt(static_cast<double>(target)))));
    const std::size_t users = std::max<std::size_t>(1, target / (fan * fan));
    const std::size_t leaves = fan * fan * users;
    const auto leaf_path = [](std::size_t s, std::size_t c, std::size_t u) {
      return "/grid/site" + std::to_string(s) + "/cluster" + std::to_string(c) + "/user" +
             std::to_string(u);
    };
    std::printf(
        "-- %s leaves (%zu sites x %zu clusters x %zu users), %zu deltas/round, %zu rounds\n",
        size_label(target).c_str(), fan, fan, users, deltas, rounds);

    util::Rng rng(args.root_seed);
    core::PolicyTree policy;
    core::UsageTree initial_usage;
    for (std::size_t s = 0; s < fan; ++s) {
      for (std::size_t c = 0; c < fan; ++c) {
        for (std::size_t u = 0; u < users; ++u) {
          const std::string path = leaf_path(s, c, u);
          policy.set_share(path, 1.0 + static_cast<double>(u % 7));
          initial_usage.add(path, rng.uniform(1.0, 1000.0));
        }
      }
    }
    std::vector<Delta> stream(deltas);
    for (auto& delta : stream) {
      delta.path = leaf_path(static_cast<std::size_t>(rng.uniform_int(0, fan - 1)),
                             static_cast<std::size_t>(rng.uniform_int(0, fan - 1)),
                             static_cast<std::size_t>(rng.uniform_int(0, users - 1)));
      delta.amount = rng.uniform(0.5, 50.0);
    }

    const core::DecayConfig decay{core::DecayKind::kNone, 0.0, 0.0};
    // Setup (policy/usage sync + first publish) is once per engine and
    // untimed; the rounds re-run only the delta loop, so the min is a
    // warm-state per-delta figure on both sides.
    testing::ReferenceMapEngine map_engine({}, decay);
    map_engine.set_policy(policy);
    map_engine.set_usage(initial_usage);
    (void)map_engine.snapshot();
    double map_seconds = std::numeric_limits<double>::infinity();
    double map_sink = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const double start = thread_cpu_seconds();
      for (const Delta& delta : stream) {
        map_engine.apply_usage(delta.path, delta.amount, 0.0);
        // The root's distance is pinned to 0 and /grid holds all usage
        // (its distance is identically 0 too); probe the first cluster so
        // the checksum actually witnesses the recompute.
        map_sink += map_engine.snapshot()->root().children.front()->children.front()->distance;
      }
      map_seconds = std::min(map_seconds, thread_cpu_seconds() - start);
    }

    core::FairshareEngine arena_engine({}, decay);
    arena_engine.set_policy(policy);
    arena_engine.set_usage(initial_usage);
    (void)arena_engine.snapshot();
    double arena_seconds = std::numeric_limits<double>::infinity();
    double arena_sink = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const double start = thread_cpu_seconds();
      for (const Delta& delta : stream) {
        arena_engine.apply_usage(delta.path, delta.amount, 0.0);
        arena_sink +=
            arena_engine.snapshot()->root().children.front()->children.front()->distance;
      }
      arena_seconds = std::min(arena_seconds, thread_cpu_seconds() - start);
    }

    if (map_sink != arena_sink) {
      std::fprintf(stderr, "FAIL: engines diverged at %zu leaves (%.17g vs %.17g)\n",
                   leaves, map_sink, arena_sink);
      return 1;
    }

    const std::string label = size_label(target);
    const double map_us = 1e6 * map_seconds / static_cast<double>(deltas);
    const double arena_us = 1e6 * arena_seconds / static_cast<double>(deltas);
    const double speedup = map_us / arena_us;
    std::printf("BM_map_delta/%-6s %12.2f us\n", label.c_str(), map_us);
    std::printf("BM_arena_delta/%-4s %12.2f us\n", label.c_str(), arena_us);
    std::printf("BM_speedup/%-8s %12.2fx   (checksum %.6g)\n\n", label.c_str(), speedup,
                arena_sink);

    json::Object metrics;
    const auto metric = [&metrics](const std::string& name, double mean) {
      json::Object summary;
      summary["count"] = 1;
      summary["mean"] = mean;
      metrics[name] = json::Value(std::move(summary));
    };
    metric("map_engine_us_per_delta", map_us);
    metric("arena_engine_us_per_delta", arena_us);
    metric("speedup_arena_vs_map", speedup);
    json::Object variant;
    variant["metrics"] = json::Value(std::move(metrics));
    variants["engine_" + label] = json::Value(std::move(variant));
  }

  write_report("incremental_scale", args, deltas, rounds, seconds_since(bench_start),
               std::move(variants));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --leaves N[,N...] selects the scale mode; peeled off before the
  // shared parser (which warns on flags it does not know).
  std::vector<std::size_t> scale_sizes;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--leaves" && i + 1 < argc) {
      std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        scale_sizes.push_back(
            static_cast<std::size_t>(std::strtoull(list.substr(pos, comma - pos).c_str(),
                                                   nullptr, 10)));
        pos = comma + 1;
      }
    } else {
      filtered.push_back(argv[i]);
    }
  }

  bench::print_banner("Incremental engine: per-delta cost vs whole-tree recompute",
                      "engine rework; fig10 tree shape (6 clusters x 40 users)");
  const bench::BenchArgs args = bench::parse_bench_args(
      static_cast<int>(filtered.size()), filtered.data(), 240, 5);
  if (!scale_sizes.empty()) return run_scale_bench(args, scale_sizes);
  const std::size_t deltas = args.jobs;
  const std::size_t rounds = args.replications;

  core::PolicyTree policy;
  util::Rng rng(args.root_seed);
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t u = 0; u < kUsersPerCluster; ++u) {
      policy.set_share(user_path(c, u), 1.0 + static_cast<double>(u % 7));
    }
  }
  core::UsageTree initial_usage;
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t u = 0; u < kUsersPerCluster; ++u) {
      initial_usage.add(user_path(c, u), rng.uniform(1.0, 1000.0));
    }
  }
  std::vector<Delta> stream(deltas);
  for (auto& delta : stream) {
    delta.path = user_path(static_cast<std::size_t>(rng.uniform_int(0, kClusters - 1)),
                           static_cast<std::size_t>(rng.uniform_int(0, kUsersPerCluster - 1)));
    delta.amount = rng.uniform(0.5, 50.0);
  }
  std::printf("tree: %zu leaves, %zu deltas/round, %zu rounds (min taken)\n\n",
              kClusters * kUsersPerCluster, deltas, rounds);

  const core::FairshareAlgorithm algorithm;
  double sink = 0.0;  // consumed below so the loops cannot be elided

  // 1) Whole-tree recompute per delta: what every FairshareTable update
  //    cost before the engine.
  double full_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    core::UsageTree usage = initial_usage;
    const auto start = std::chrono::steady_clock::now();
    for (const Delta& delta : stream) {
      usage.add(delta.path, delta.amount);
      sink += core::FairshareEngine::compute_once(algorithm.config(), policy, usage)
                  .root()
                  .distance;
    }
    full_seconds = std::min(full_seconds, seconds_since(start));
  }

  // 2) Incremental: one apply_usage() + snapshot() per delta. kNone decay
  //    keeps the two sides arithmetically identical per step.
  double incremental_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    core::FairshareEngine engine({}, core::DecayConfig{core::DecayKind::kNone, 0.0, 0.0});
    engine.set_policy(policy);
    engine.set_usage(initial_usage);
    (void)engine.snapshot();
    const auto start = std::chrono::steady_clock::now();
    for (const Delta& delta : stream) {
      engine.apply_usage(delta.path, delta.amount, 0.0);
      sink += engine.snapshot()->root().distance;
    }
    incremental_seconds = std::min(incremental_seconds, seconds_since(start));
  }

  // 3) Batch-wrapper overhead: compute_once() (throwaway engine) against
  //    the frozen original recursion, both doing the identical one-shot job.
  const std::size_t batch_iterations = std::max<std::size_t>(deltas / 4, 16);
  double wrapper_seconds = std::numeric_limits<double>::infinity();
  double reference_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch_iterations; ++i) {
      sink += core::FairshareEngine::compute_once(algorithm.config(), policy,
                                                  initial_usage)
                  .root()
                  .distance;
    }
    wrapper_seconds = std::min(wrapper_seconds, seconds_since(start));

    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch_iterations; ++i) {
      core::FairshareTree::Node root;
      std::vector<std::string> prefix;
      reference_annotate(algorithm, policy.root(), initial_usage, prefix, root);
      sink += root.children.front().distance;
    }
    reference_seconds = std::min(reference_seconds, seconds_since(start));
  }

  const double full_us = 1e6 * full_seconds / static_cast<double>(deltas);
  const double incremental_us = 1e6 * incremental_seconds / static_cast<double>(deltas);
  const double speedup = full_us / incremental_us;
  const double overhead = wrapper_seconds / reference_seconds;
  std::printf("whole-tree recompute per delta: %9.2f us\n", full_us);
  std::printf("incremental engine per delta:   %9.2f us\n", incremental_us);
  std::printf("speedup (incremental vs full):  %9.2fx   (gate floor: 23x)\n", speedup);
  std::printf("batch wrapper vs original:      %9.4fx   (gate ceiling: 1.02x)\n", overhead);
  std::printf("(checksum %.6g)\n\n", sink);

  json::Object metrics;
  const auto metric = [&metrics](const std::string& name, double mean) {
    json::Object summary;
    summary["count"] = 1;
    summary["mean"] = mean;
    metrics[name] = json::Value(std::move(summary));
  };
  metric("full_recompute_us_per_delta", full_us);
  metric("incremental_us_per_delta", incremental_us);
  metric("speedup_incremental_vs_full", speedup);
  metric("wrapper_overhead_vs_reference", overhead);

  json::Object variant;
  variant["metrics"] = json::Value(std::move(metrics));
  json::Object variants;
  variants["incremental"] = json::Value(std::move(variant));

  write_report("incremental", args, deltas, rounds,
               full_seconds + incremental_seconds + wrapper_seconds + reference_seconds,
               std::move(variants));
  return 0;
}
