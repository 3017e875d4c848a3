// JSON decoding of ExperimentConfig, the testbed knobs of one run.
//
// The scenario DSL (src/scenario/spec.hpp) is the experiment-spec
// format; its "experiment" object (deep-merged with any per-variant
// overlay) is decoded here. Every key is optional:
//
//   {
//     "dispatch": "stochastic" | "round-robin",
//     "timings": {"service_update_interval": 30, "client_cache_ttl": 30,
//                 "reprioritize_interval": 30, "uss_bin_width": 600},
//     "fairshare": {"decay": {...}, "algorithm": {...}, "projection": {...}},
//     "sample_interval": 60, "seed_rng": 7, "record_per_site": false,
//     "sites": {"4": {"contributes": false}, "5": {"reads_global": false,
//               "rm": "maui"}}
//   }
#pragma once

#include "json/decode.hpp"
#include "json/json.hpp"
#include "testbed/experiment.hpp"

/// json::decode<testbed::ExperimentConfig> support: builds the experiment
/// configuration from the spec (all keys optional).
template <>
struct aequus::json::Decoder<aequus::testbed::ExperimentConfig> {
  [[nodiscard]] static aequus::testbed::ExperimentConfig decode(const Value& spec);
};
