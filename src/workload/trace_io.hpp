// Trace file input/output.
//
// Two formats:
//   - SWF (Standard Workload Format, Feitelson's archive format): the de
//     facto interchange format for cluster workload traces, so real
//     traces (e.g. from the Parallel Workloads Archive) can be replayed
//     through the testbed, and synthetic traces can be analyzed with
//     standard tooling. Only the fields this library uses are
//     interpreted: job number (1), submit time (2), run time (4),
//     allocated processors (5), user id (12). Status (11) = 0 or
//     run time <= 0 marks cancelled jobs (kept, as zero-duration records,
//     for the cleanup filters). Header comments (';') carry metadata.
//   - CSV: "user,submit,duration,cores,admin" — the library's own simple
//     format, loss-free for TraceRecord.
#pragma once

#include <iosfwd>
#include <string>

#include "workload/trace.hpp"

namespace aequus::workload {

/// Write `trace` in SWF. Users are emitted as numeric ids with a comment
/// header mapping ids back to names; admin jobs are flagged via the
/// partition field (16) = 2.
void write_swf(std::ostream& out, const Trace& trace);

/// Parse SWF. Unknown/missing optional fields are tolerated; malformed
/// *data* lines, and a submit time that is negative (SWF's -1 "unknown"),
/// throw std::runtime_error with the line number.
[[nodiscard]] Trace read_swf(std::istream& in);

/// Write the loss-free CSV form with a header row.
void write_csv(std::ostream& out, const Trace& trace);

/// Parse the CSV form (header row required). Every field must parse whole:
/// an empty user, unparsable or trailing-garbage numbers, non-finite or
/// negative times and durations, and cores < 1 throw std::runtime_error
/// naming the field and line number.
[[nodiscard]] Trace read_csv(std::istream& in);

/// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_trace(const std::string& path, const Trace& trace);  // by extension (.swf/.csv)
[[nodiscard]] Trace load_trace(const std::string& path);

}  // namespace aequus::workload
