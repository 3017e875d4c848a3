#include "testbed/config.hpp"

#include <stdexcept>

#include "core/backend.hpp"
#include "core/projection.hpp"

aequus::testbed::ExperimentConfig aequus::json::Decoder<aequus::testbed::ExperimentConfig>::decode(
    const Value& spec) {
  namespace core = aequus::core;
  namespace json = aequus::json;
  using namespace aequus::testbed;
  ExperimentConfig config;

  const std::string dispatch = spec.get_string("dispatch", "stochastic");
  if (dispatch == "stochastic") config.dispatch = DispatchPolicy::kStochastic;
  else if (dispatch == "round-robin") config.dispatch = DispatchPolicy::kRoundRobin;
  else throw std::invalid_argument("unknown dispatch policy: " + dispatch);

  if (const auto timings = spec.find("timings")) {
    const auto& t = timings->get();
    config.timings.service_update_interval =
        t.get_number("service_update_interval", config.timings.service_update_interval);
    config.timings.client_cache_ttl =
        t.get_number("client_cache_ttl", config.timings.client_cache_ttl);
    config.timings.reprioritize_interval =
        t.get_number("reprioritize_interval", config.timings.reprioritize_interval);
    config.timings.uss_bin_width =
        t.get_number("uss_bin_width", config.timings.uss_bin_width);
    config.timings.uss_retention =
        t.get_number("uss_retention", config.timings.uss_retention);
  }
  if (const auto fairshare = spec.find("fairshare")) {
    const auto& f = fairshare->get();
    if (const auto decay = f.find("decay")) {
      config.fairshare.decay = core::Decay::from_json(decay->get()).config();
    }
    if (const auto algorithm = f.find("algorithm")) {
      config.fairshare.algorithm = json::decode<core::FairshareConfig>(algorithm->get());
    }
    if (const auto projection = f.find("projection")) {
      config.fairshare.projection = json::decode<core::ProjectionConfig>(projection->get());
    }
    if (const auto backend = f.find("backend")) {
      // Accepts a bare name ("credit") or the object form with
      // per-policy tuning; unknown names throw here.
      config.fairshare.backend = json::decode<core::FairnessBackendConfig>(backend->get());
    }
  }
  config.bus_remote_latency = spec.get_number("bus_remote_latency", config.bus_remote_latency);
  config.sample_interval = spec.get_number("sample_interval", config.sample_interval);
  config.seed = static_cast<std::uint64_t>(spec.get_number("seed_rng", config.seed));
  config.record_per_site = spec.get_bool("record_per_site", config.record_per_site);
  config.drain_seconds = spec.get_number("drain_seconds", config.drain_seconds);

  if (const auto batching = spec.find("usage_batching")) {
    const auto& b = batching->get();
    auto& ingest = config.usage_batching;
    ingest.enabled = b.get_bool("enabled", true);
    ingest.batch_interval = b.get_number("batch_interval", ingest.batch_interval);
    ingest.max_batch_records =
        static_cast<std::size_t>(b.get_number("max_batch_records",
                                              static_cast<double>(ingest.max_batch_records)));
    ingest.queue_capacity = static_cast<std::size_t>(
        b.get_number("queue_capacity", static_cast<double>(ingest.queue_capacity)));
    const std::string overflow = b.get_string("overflow", "block");
    if (overflow == "block") ingest.overflow = aequus::ingest::OverflowPolicy::kBlockProducer;
    else if (overflow == "drop-oldest") ingest.overflow = aequus::ingest::OverflowPolicy::kDropOldest;
    else throw std::invalid_argument("unknown ingest overflow policy: " + overflow);
  }

  if (const auto offloads = spec.find("offloads")) {
    for (const auto& entry : offloads->get().as_array()) {
      OffloadRule rule;
      rule.from_site = static_cast<int>(entry.get_number("from_site", -1));
      rule.to_site = static_cast<int>(entry.get_number("to_site", 0));
      rule.fraction = entry.get_number("fraction", 0.0);
      rule.start = entry.get_number("start", 0.0);
      rule.end = entry.get_number("end", rule.end);
      config.offloads.push_back(rule);
    }
  }

  if (const auto sites = spec.find("sites")) {
    for (const auto& [index_text, overrides] : sites->get().as_object()) {
      const int index = std::atoi(index_text.c_str());
      SiteSpec site;
      site.participation.contributes = overrides.get_bool("contributes", true);
      site.participation.reads_global = overrides.get_bool("reads_global", true);
      const std::string rm = overrides.get_string("rm", "slurm");
      if (rm == "slurm") site.rm = RmKind::kSlurm;
      else if (rm == "maui") site.rm = RmKind::kMaui;
      else throw std::invalid_argument("unknown rm kind: " + rm);
      site.hosts = static_cast<int>(overrides.get_number("hosts", 0));
      site.cores_per_host = static_cast<int>(overrides.get_number("cores_per_host", 0));
      config.site_overrides[index] = site;
    }
  }
  return config;
}
