// JSON configuration for an Aequus installation.
//
// Deployments configure the service stack from a single document:
//
//   {
//     "uss": {"bin_width": 60, "retention": 0},
//     "ums": {"update_interval": 30, "read_remote": true,
//             "decay": {"kind": "half-life", "half_life": 86400}},
//     "fcs": {"update_interval": 30,
//             "algorithm": {"k": 0.5, "resolution": 10000},
//             "projection": {"kind": "percental", "bits_per_level": 8}}
//   }
//
// Unknown keys are ignored; missing keys keep their defaults, so configs
// stay forward- and backward-compatible.
#pragma once

#include "json/decode.hpp"
#include "json/json.hpp"
#include "services/installation.hpp"

namespace aequus::services {

[[nodiscard]] json::Value to_json(const InstallationConfig& config);

}  // namespace aequus::services

/// json::decode<services::InstallationConfig> support.
template <>
struct aequus::json::Decoder<aequus::services::InstallationConfig> {
  [[nodiscard]] static aequus::services::InstallationConfig decode(const Value& value);
};
