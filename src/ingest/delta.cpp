#include "ingest/delta.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace aequus::ingest {

namespace {

/// FNV-1a over the user name and the bin's bits. `bin + 0.0` folds -0.0
/// into +0.0, which compare equal and must hash alike.
std::uint64_t key_hash(const std::string& user, double bin) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : user) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::uint64_t bits = 0;
  const double normalized = bin + 0.0;
  std::memcpy(&bits, &normalized, sizeof bits);
  h ^= bits;
  h *= 1099511628211ull;
  return h ^ (h >> 29);
}

}  // namespace

std::vector<UsageDelta> coalesce(const std::vector<UsageDelta>& deltas, double bin_width) {
  std::vector<UsageDelta> merged;
  merged.reserve(deltas.size());
  std::vector<double> merged_bins;
  merged_bins.reserve(deltas.size());
  // Open-addressing (user, bin) -> index into `merged`, at most half
  // full; first appearance fixes the order.
  constexpr std::uint32_t kEmpty = 0xffffffffu;
  std::size_t capacity = 16;
  while (capacity < 2 * deltas.size()) capacity *= 2;
  std::vector<std::uint32_t> index(capacity, kEmpty);
  const std::size_t mask = capacity - 1;
  for (const UsageDelta& delta : deltas) {
    const double bin = bin_of(delta.time, bin_width);
    std::size_t slot = static_cast<std::size_t>(key_hash(delta.user, bin)) & mask;
    while (true) {
      const std::uint32_t at = index[slot];
      if (at == kEmpty) {
        index[slot] = static_cast<std::uint32_t>(merged.size());
        merged.push_back(delta);
        merged_bins.push_back(bin);
        break;
      }
      if (merged_bins[at] == bin && merged[at].user == delta.user) {
        merged[at].amount += delta.amount;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  return merged;
}

double DeltaBatch::total() const noexcept {
  double sum = 0.0;
  for (const UsageDelta& delta : deltas) sum += delta.amount;
  return sum;
}

json::Value DeltaBatch::to_json() const {
  json::Array records;
  records.reserve(deltas.size());
  for (const UsageDelta& delta : deltas) {
    records.push_back(json::Array{json::Value(delta.user), json::Value(delta.time),
                                  json::Value(delta.amount)});
  }
  json::Object envelope;
  envelope["op"] = kBatchOp;
  envelope["source"] = source;
  envelope["seq"] = static_cast<double>(seq);
  envelope["deltas"] = std::move(records);
  return json::Value(std::move(envelope));
}

DeltaBatch DeltaBatch::from_json(const json::Value& value) {
  DeltaBatch batch;
  if (value.get_string("op") != kBatchOp) {
    throw std::invalid_argument("DeltaBatch: op is not " + std::string(kBatchOp));
  }
  batch.source = value.get_string("source");
  if (batch.source.empty()) throw std::invalid_argument("DeltaBatch: missing source");
  const double seq = value.get_number("seq", -1.0);
  if (seq < 1.0) throw std::invalid_argument("DeltaBatch: bad seq");
  batch.seq = static_cast<std::uint64_t>(seq);
  const json::Value& records = value.at("deltas");
  batch.deltas.reserve(records.size());
  for (const json::Value& record : records.as_array()) {
    if (record.size() != 3) throw std::invalid_argument("DeltaBatch: bad record arity");
    UsageDelta delta;
    delta.user = record.at(0).as_string();
    delta.time = record.at(1).as_number();
    delta.amount = record.at(2).as_number();
    if (delta.user.empty()) throw std::invalid_argument("DeltaBatch: empty user");
    if (!(delta.amount > 0.0)) throw std::invalid_argument("DeltaBatch: non-positive amount");
    batch.deltas.push_back(std::move(delta));
  }
  return batch;
}

}  // namespace aequus::ingest
