// Usage Statistics Service (USS).
//
// §II-A: "The Usage Statistics Service (USS) gathers per-job usage results
// of the local site, and produces per-user histograms for configurable
// time intervals." The histograms are the compact exchange format: other
// sites' UMS instances fetch them instead of individual job records,
// "relaying the combined usage of each user on each site while omitting
// the details of individual jobs".
//
// Bus protocol (address "<site>.uss"):
//   {"op":"report", "user":<grid id>, "usage":<core-seconds>}  -> {"ok":true}
//   {"op":"report_batch", "source":<site>, "seq":n,
//    "deltas":[[user, time, amount], ...]}
//       -> {"ok":true, "applied":k} | {"ok":true, "duplicate":true}
//   {"op":"histograms"} -> {"users": {"<user>": [[bin_time, amount], ...]}}
//
// The histograms reply is served from a frozen json::Value (json.hpp)
// built on the first poll after the histograms last changed: every
// report_at() — and so report() and apply_batch() — marks it stale, and
// polls in between share one immutable reply for the cost of a reference
// count, wire_size() included.
//
// Batch envelopes come from the ingest delta log (DESIGN.md §6g). They
// are applied transactionally — all records of an admitted batch, none
// of a duplicate — and idempotently: the bus may duplicate inter-site
// legs, so each (source, seq) pair is admitted exactly once. Batched
// records carry their *record* time and are binned by it, not by
// arrival, so cadence-delayed delivery lands in the same histogram bins
// the per-delta path would have used.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ingest/apply.hpp"
#include "ingest/delta.hpp"
#include "net/service_bus.hpp"
#include "services/telemetry.hpp"
#include "sim/simulator.hpp"

namespace aequus::services {

struct UssConfig {
  double bin_width = 60.0;  ///< histogram interval length [s]
  /// Drop bins older than this many seconds (0 = keep everything). With
  /// exponential decay downstream, bins past ~6 half-lives carry <2 % of
  /// their mass, so pruning bounds the exchanged histogram size on long
  /// runs without noticeably changing the fairshare values.
  double retention = 0.0;
};

class Uss {
 public:
  Uss(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, UssConfig config = {},
      obs::Observability obs = {});
  ~Uss();
  Uss(const Uss&) = delete;
  Uss& operator=(const Uss&) = delete;

  /// Record `usage` core-seconds for `grid_user` at the current time.
  void report(const std::string& grid_user, double usage);

  /// Record `usage` core-seconds binned by an explicit record time (the
  /// batched path: a delta delayed by its cadence still lands in the bin
  /// it was produced in).
  void report_at(const std::string& grid_user, double usage, double time);

  /// Apply one decoded batch envelope: admitted exactly once per
  /// (source, seq), all records or none. Returns false for duplicates.
  bool apply_batch(const ingest::DeltaBatch& batch);

  /// Per-user histograms: user -> ordered (bin start time, amount) pairs.
  [[nodiscard]] const std::map<std::string, std::vector<std::pair<double, double>>>& histograms()
      const noexcept {
    return histograms_;
  }

  /// Total recorded usage for one user (un-decayed).
  [[nodiscard]] double total_for(const std::string& grid_user) const;

  [[nodiscard]] const std::string& address() const noexcept { return address_; }
  [[nodiscard]] std::uint64_t reports_received() const noexcept { return reports_; }
  [[nodiscard]] std::uint64_t batches_applied() const noexcept { return batches_applied_; }
  [[nodiscard]] std::uint64_t batch_duplicates() const noexcept { return batch_duplicates_; }

  /// Serialize histograms into the wire format (a fresh, unshared tree).
  [[nodiscard]] json::Value histograms_json() const;

 private:
  json::Value handle(const json::Value& request);
  /// The frozen histograms reply, rebuilt only when stale.
  const json::Value& histograms_reply();

  sim::Simulator& simulator_;
  net::ServiceBus& bus_;
  std::string site_;
  std::string address_;
  UssConfig config_;
  ServiceTelemetry telemetry_;
  std::map<std::string, std::vector<std::pair<double, double>>> histograms_;
  json::Value histograms_reply_;   ///< frozen histograms_json(); valid unless stale
  bool histograms_stale_ = true;   ///< histograms_ changed since the reply was built
  std::uint64_t reports_ = 0;
  ingest::BatchApplier applier_;
  std::uint64_t batches_applied_ = 0;
  std::uint64_t batch_duplicates_ = 0;
  obs::Counter* batch_counter_ = nullptr;
  obs::Counter* batch_duplicate_counter_ = nullptr;
};

}  // namespace aequus::services
