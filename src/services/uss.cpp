#include "services/uss.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace aequus::services {

Uss::Uss(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, UssConfig config,
         obs::Observability obs)
    : simulator_(simulator),
      bus_(bus),
      site_(std::move(site)),
      address_(site_ + ".uss"),
      config_(config),
      telemetry_(obs, simulator, site_, "uss", {"report", "report_batch", "histograms"}) {
  batch_counter_ = telemetry_.counter("batches_applied");
  batch_duplicate_counter_ = telemetry_.counter("batch_duplicates");
  bus_.bind(address_, [this](const json::Value& request) { return handle(request); });
}

Uss::~Uss() {
  bus_.unbind(address_);
}

void Uss::report(const std::string& grid_user, double usage) {
  report_at(grid_user, usage, simulator_.now());
}

void Uss::report_at(const std::string& grid_user, double usage, double time) {
  if (usage <= 0.0) return;
  ++reports_;
  histograms_stale_ = true;
  const double bin_start = std::floor(time / config_.bin_width) * config_.bin_width;
  auto& bins = histograms_[grid_user];
  if (bins.empty() || bins.back().first < bin_start) {
    bins.emplace_back(bin_start, usage);
  } else if (bins.back().first == bin_start) {
    bins.back().second += usage;
  } else {
    // A batch delayed past newer per-delta reports can target an older
    // bin; keep the histogram sorted so downstream decay sums stay in
    // bin order.
    const auto it = std::lower_bound(
        bins.begin(), bins.end(), bin_start,
        [](const std::pair<double, double>& bin, double start) { return bin.first < start; });
    if (it != bins.end() && it->first == bin_start) {
      it->second += usage;
    } else {
      bins.insert(it, {bin_start, usage});
    }
  }
  if (config_.retention > 0.0) {
    const double horizon = simulator_.now() - config_.retention;
    std::size_t stale = 0;
    while (stale < bins.size() && bins[stale].first < horizon) ++stale;
    if (stale > 0) bins.erase(bins.begin(), bins.begin() + static_cast<std::ptrdiff_t>(stale));
  }
}

bool Uss::apply_batch(const ingest::DeltaBatch& batch) {
  if (!applier_.admit(batch.source, batch.seq)) {
    ++batch_duplicates_;
    obs::bump(batch_duplicate_counter_);
    telemetry_.trace(obs::EventKind::kMessageDrop, "duplicate_batch:" + batch.source,
                     static_cast<double>(batch.seq));
    return false;
  }
  for (const ingest::UsageDelta& delta : batch.deltas) {
    report_at(delta.user, delta.amount, delta.time);
  }
  ++batches_applied_;
  obs::bump(batch_counter_);
  telemetry_.trace(obs::EventKind::kUsageUpdateApplied, "batch:" + batch.source,
                   static_cast<double>(batch.deltas.size()));
  return true;
}

double Uss::total_for(const std::string& grid_user) const {
  const auto it = histograms_.find(grid_user);
  if (it == histograms_.end()) return 0.0;
  double total = 0.0;
  for (const auto& [time, amount] : it->second) {
    (void)time;
    total += amount;
  }
  return total;
}

json::Value Uss::histograms_json() const {
  json::Object users;
  for (const auto& [user, bins] : histograms_) {
    json::Array entries;
    for (const auto& [time, amount] : bins) {
      entries.push_back(json::Array{json::Value(time), json::Value(amount)});
    }
    users[user] = std::move(entries);
  }
  json::Object reply;
  reply["users"] = std::move(users);
  return json::Value(std::move(reply));
}

const json::Value& Uss::histograms_reply() {
  if (histograms_stale_) {
    histograms_reply_ = json::Value::frozen(histograms_json());
    histograms_stale_ = false;
  }
  return histograms_reply_;
}

json::Value Uss::handle(const json::Value& request) {
  const std::string op = request.get_string("op");
  telemetry_.hit(op);
  if (op == "report") {
    const std::string user = request.get_string("user");
    const double usage = request.get_number("usage");
    report(user, usage);
    // Point event inside the bus's handle span: marks where a usage record
    // entered the store on the propagation chain.
    telemetry_.trace(obs::EventKind::kUsageUpdateApplied, "report:" + user, usage);
    return json::Value(json::Object{{"ok", json::Value(true)}});
  }
  if (op == ingest::kBatchOp) {
    try {
      const ingest::DeltaBatch batch = ingest::DeltaBatch::from_json(request);
      json::Object reply;
      reply["ok"] = true;
      if (apply_batch(batch)) {
        reply["applied"] = static_cast<double>(batch.deltas.size());
      } else {
        reply["duplicate"] = true;
      }
      return json::Value(std::move(reply));
    } catch (const std::exception& e) {
      AEQ_WARN("uss") << site_ << ": malformed batch envelope: " << e.what();
      return json::Value(json::Object{{"error", json::Value(std::string(e.what()))}});
    }
  }
  if (op == "histograms") {
    return histograms_reply();
  }
  return json::Value(json::Object{{"error", json::Value("unknown op: " + op)}});
}

}  // namespace aequus::services
