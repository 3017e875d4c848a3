#include "workload/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace aequus::workload {

namespace {

/// user name <-> numeric id maps for SWF emission.
std::map<std::string, int> number_users(const Trace& trace) {
  std::map<std::string, int> ids;
  for (const auto& record : trace.records()) {
    ids.emplace(record.user, 0);
  }
  int next = 1;
  for (auto& [user, id] : ids) {
    (void)user;
    id = next++;
  }
  return ids;
}

/// `text` (surrounding blanks trimmed) as a whole T; empty, unparsable,
/// out-of-range or trailing-garbage text yields nothing. Locale-free.
template <typename T>
std::optional<T> parse_field(std::string_view text) {
  text = util::trim(text);
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace

void write_swf(std::ostream& out, const Trace& trace) {
  const auto ids = number_users(trace);
  out << "; SWF trace written by aequus\n";
  out << "; MaxJobs: " << trace.size() << "\n";
  for (const auto& [user, id] : ids) {
    out << "; UserID " << id << " = " << user << "\n";
  }
  out << "; Fields: job submit wait run procs avgcpu mem reqprocs reqtime reqmem status "
         "user group app queue partition prevjob thinktime\n";
  long job_number = 1;
  for (const auto& r : trace.records()) {
    const int status = r.duration > 0.0 ? 1 : 0;
    const int partition = r.admin ? 2 : 1;
    out << job_number++ << ' ' << util::format("%.0f", r.submit) << " -1 "
        << util::format("%.0f", r.duration) << ' ' << r.cores << " -1 -1 " << r.cores
        << " -1 -1 " << status << ' ' << ids.at(r.user) << " -1 -1 -1 " << partition
        << " -1 -1\n";
  }
}

Trace read_swf(std::istream& in) {
  Trace trace;
  std::map<int, std::string> names;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == ';') {
      // Recover user names from our own header convention when present:
      // "; UserID <n> = <name>".
      const auto parts = util::split_nonempty(trimmed.substr(1), ' ');
      if (parts.size() == 4 && parts[0] == "UserID" && parts[2] == "=") {
        names[std::atoi(parts[1].c_str())] = parts[3];
      }
      continue;
    }
    std::istringstream fields{std::string(trimmed)};
    long job_number = 0;
    double submit = 0.0;
    double wait = 0.0;
    double run_time = 0.0;
    long procs = 0;
    double avg_cpu = 0.0;
    double mem = 0.0;
    long req_procs = 0;
    double req_time = 0.0;
    double req_mem = 0.0;
    int status = 0;
    long user_id = 0;
    if (!(fields >> job_number >> submit >> wait >> run_time >> procs >> avg_cpu >> mem >>
          req_procs >> req_time >> req_mem >> status >> user_id)) {
      throw std::runtime_error(
          util::format("read_swf: malformed record at line %zu", line_number));
    }
    // SWF writes -1 for an unknown field; a job needs a real submit time.
    if (!std::isfinite(submit) || submit < 0.0) {
      throw std::runtime_error(
          util::format("read_swf: unknown or negative submit time at line %zu", line_number));
    }
    // Optional trailing fields: group, app, queue, partition, ...
    long group = 0;
    long app = 0;
    long queue = 0;
    long partition = 0;
    fields >> group >> app >> queue >> partition;

    TraceRecord record;
    const auto name_it = names.find(static_cast<int>(user_id));
    record.user = name_it != names.end() ? name_it->second
                                         : util::format("user%ld", user_id);
    record.submit = submit;
    record.duration = status == 0 ? 0.0 : std::max(run_time, 0.0);
    record.cores = procs > 0 ? static_cast<int>(procs)
                             : std::max(1, static_cast<int>(req_procs));
    record.admin = partition == 2;
    trace.add(std::move(record));
  }
  trace.sort_by_submit();
  return trace;
}

void write_csv(std::ostream& out, const Trace& trace) {
  out << "user,submit,duration,cores,admin\n";
  for (const auto& r : trace.records()) {
    out << r.user << ',' << util::format("%.6f", r.submit) << ','
        << util::format("%.6f", r.duration) << ',' << r.cores << ',' << (r.admin ? 1 : 0)
        << '\n';
  }
}

Trace read_csv(std::istream& in) {
  Trace trace;
  std::string line;
  if (!std::getline(in, line) || util::trim(line) != "user,submit,duration,cores,admin") {
    throw std::runtime_error("read_csv: missing or unexpected header row");
  }
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (util::trim(line).empty()) continue;
    const auto fields = util::split(line, ',');
    if (fields.size() != 5) {
      throw std::runtime_error(
          util::format("read_csv: expected 5 fields at line %zu", line_number));
    }
    const auto invalid = [&](const char* field) {
      return std::runtime_error(
          util::format("read_csv: invalid %s at line %zu", field, line_number));
    };
    const auto submit = parse_field<double>(fields[1]);
    const auto duration = parse_field<double>(fields[2]);
    const auto cores = parse_field<int>(fields[3]);
    const auto admin = parse_field<int>(fields[4]);
    if (fields[0].empty()) throw invalid("user");
    if (!submit || !std::isfinite(*submit) || *submit < 0.0) throw invalid("submit");
    if (!duration || !std::isfinite(*duration) || *duration < 0.0) throw invalid("duration");
    if (!cores || *cores <= 0) throw invalid("cores");
    if (!admin) throw invalid("admin");
    trace.add({fields[0], *submit, *duration, *cores, *admin != 0});
  }
  return trace;
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace: cannot open " + path);
  if (util::ends_with(path, ".swf")) {
    write_swf(out, trace);
  } else if (util::ends_with(path, ".csv")) {
    write_csv(out, trace);
  } else {
    throw std::runtime_error("save_trace: unknown extension on " + path);
  }
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace: cannot open " + path);
  if (util::ends_with(path, ".swf")) return read_swf(in);
  if (util::ends_with(path, ".csv")) return read_csv(in);
  throw std::runtime_error("load_trace: unknown extension on " + path);
}

}  // namespace aequus::workload
