#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "workload/generator.hpp"
#include "workload/national_model.hpp"
#include "workload/trace_io.hpp"

namespace aequus::workload {
namespace {

Trace sample_trace() {
  Trace trace;
  trace.add({"alice", 100.0, 3600.0, 2, false});
  trace.add({"bob", 150.0, 0.0, 1, false});      // cancelled
  trace.add({"sysadmin", 10.0, 30.0, 1, true});  // admin job
  trace.add({"alice", 400.0, 120.0, 1, false});
  trace.sort_by_submit();
  return trace;
}

/// `read` over `text` must throw a runtime_error whose message holds `needle`.
void expect_rejects(Trace (*read)(std::istream&), const std::string& text,
                    const std::string& needle) {
  std::stringstream stream(text);
  try {
    (void)read(stream);
    ADD_FAILURE() << "expected a rejection of: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << text << e.what();
  }
}

TEST(SwfIo, RoundTripPreservesRecords) {
  const Trace original = sample_trace();
  std::stringstream stream;
  write_swf(stream, original);
  const Trace restored = read_swf(stream);

  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = restored.records()[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_NEAR(a.submit, b.submit, 0.5);    // SWF stores whole seconds
    EXPECT_NEAR(a.duration, b.duration, 0.5);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.admin, b.admin);
  }
}

TEST(SwfIo, CancelledJobsKeepZeroDuration) {
  std::stringstream stream;
  write_swf(stream, sample_trace());
  const Trace restored = read_swf(stream);
  int zero_count = 0;
  for (const auto& r : restored.records()) {
    if (r.duration == 0.0) ++zero_count;
  }
  EXPECT_EQ(zero_count, 1);
}

TEST(SwfIo, ReadsForeignSwfWithoutNameHeader) {
  // A minimal record from a foreign archive trace: numeric users.
  std::stringstream stream(
      "; Comment header\n"
      "1 0 5 100 4 -1 -1 4 120 -1 1 42 -1 -1 -1 1 -1 -1\n"
      "2 10 0 50 1 -1 -1 1 60 -1 0 43 -1 -1 -1 1 -1 -1\n");
  const Trace trace = read_swf(stream);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.records()[0].user, "user42");
  EXPECT_EQ(trace.records()[0].cores, 4);
  EXPECT_DOUBLE_EQ(trace.records()[0].duration, 100.0);
  EXPECT_DOUBLE_EQ(trace.records()[1].duration, 0.0);  // status 0
}

TEST(SwfIo, MalformedLineThrowsWithLineNumber) {
  expect_rejects(read_swf, "1 2 3\n", "line 1");
}

TEST(SwfIo, RejectsUnknownSubmitTimeWithLineNumber) {
  expect_rejects(read_swf,
                 "1 0 5 100 4 -1 -1 4 120 -1 1 42 -1 -1 -1 1 -1 -1\n"
                 "2 -1 0 50 1 -1 -1 1 60 -1 1 43 -1 -1 -1 1 -1 -1\n",
                 "submit time at line 2");
}

TEST(CsvIo, RoundTripIsLossFree) {
  const Trace original = sample_trace();
  std::stringstream stream;
  write_csv(stream, original);
  const Trace restored = read_csv(stream);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = restored.records()[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_DOUBLE_EQ(a.submit, b.submit);
    EXPECT_DOUBLE_EQ(a.duration, b.duration);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.admin, b.admin);
  }
}

TEST(CsvIo, RejectsMissingHeader) {
  std::stringstream stream("alice,0,1,1,0\n");
  EXPECT_THROW((void)read_csv(stream), std::runtime_error);
}

TEST(CsvIo, RejectsBadFieldCount) {
  std::stringstream stream("user,submit,duration,cores,admin\nalice,0,1\n");
  EXPECT_THROW((void)read_csv(stream), std::runtime_error);
}

TEST(CsvIo, RejectsInvalidFieldsNamingFieldAndLine) {
  // A header plus `row` (line 2) must be rejected naming `field`.
  const auto expect_csv_rejects = [](const std::string& row, const std::string& field) {
    expect_rejects(read_csv, "user,submit,duration,cores,admin\n" + row + "\n",
                   "invalid " + field + " at line 2");
  };
  expect_csv_rejects("alice,0,1,0,0", "cores");
  expect_csv_rejects("alice,abc,1,1,0", "submit");
  expect_csv_rejects("alice,,1,1,0", "submit");
  expect_csv_rejects("alice,0,12s,1,0", "duration");
  expect_csv_rejects("alice,0,1,3x,0", "cores");
  expect_csv_rejects("alice,0,1,1.5,0", "cores");
  expect_csv_rejects("alice,0,1,1,yes", "admin");
  expect_csv_rejects(",0,1,1,0", "user");
  expect_csv_rejects("alice,nan,1,1,0", "submit");
  expect_csv_rejects("alice,inf,1,1,0", "submit");
  expect_csv_rejects("alice,1e999,1,1,0", "submit");
  expect_csv_rejects("alice,-1,1,1,0", "submit");
  expect_csv_rejects("alice,0,nan,1,0", "duration");
  expect_csv_rejects("alice,0,-inf,1,0", "duration");
  expect_csv_rejects("alice,0,-5,1,0", "duration");
}

TEST(CsvIo, AcceptsBlankPaddedFields) {
  std::stringstream stream("user,submit,duration,cores,admin\nalice, 10.5 ,0,2 , 1\n");
  const TraceRecord record = read_csv(stream).records().at(0);
  EXPECT_EQ(record.submit, 10.5);
  EXPECT_EQ(record.cores, 2);
  EXPECT_TRUE(record.admin);
}

TEST(TraceFiles, SaveAndLoadByExtension) {
  const Trace original = sample_trace();
  const std::string swf_path = "/tmp/aequus_io_test.swf";
  const std::string csv_path = "/tmp/aequus_io_test.csv";
  save_trace(swf_path, original);
  save_trace(csv_path, original);
  EXPECT_EQ(load_trace(swf_path).size(), original.size());
  EXPECT_EQ(load_trace(csv_path).size(), original.size());
  EXPECT_THROW(save_trace("/tmp/aequus_io_test.xyz", original), std::runtime_error);
  EXPECT_THROW((void)load_trace("/tmp/definitely_missing_aequus.csv"), std::runtime_error);
  std::remove(swf_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(TraceFiles, GeneratedTraceSurvivesSwfRoundTrip) {
  const auto model = NationalGridModel::paper_2012(21600.0);
  GeneratorConfig config;
  config.total_jobs = 500;
  config.admin_job_fraction = 0.1;
  const Trace original = generate_trace(model, config);

  std::stringstream stream;
  write_swf(stream, original);
  const Trace restored = read_swf(stream);
  ASSERT_EQ(restored.size(), original.size());
  const auto original_stats = original.user_stats();
  const auto restored_stats = restored.user_stats();
  for (const auto& [user, stats] : original_stats) {
    EXPECT_EQ(restored_stats.at(user).jobs, stats.jobs) << user;
    // Whole-second rounding perturbs usage slightly.
    EXPECT_NEAR(restored_stats.at(user).usage_fraction, stats.usage_fraction, 0.01) << user;
  }
}

TEST(WalltimeCap, ClampsAndKeepsTargets) {
  Trace trace;
  trace.add({"a", 0.0, 100.0, 1, false});
  trace.add({"a", 1.0, 10000.0, 1, false});
  trace.add({"b", 2.0, 50.0, 1, false});
  enforce_walltime_cap(trace, {{"a", 2000.0}, {"b", 100.0}}, 1500.0);
  double a_total = 0.0;
  double b_total = 0.0;
  for (const auto& r : trace.records()) {
    if (r.user == "a") a_total += r.usage();
    else b_total += r.usage();
  }
  EXPECT_NEAR(a_total, 2000.0, 1.0);
  EXPECT_NEAR(b_total, 100.0, 1e-9);
  // b had no capping: pure rescale to target.
  EXPECT_NEAR(trace.records()[2].duration, 100.0, 1e-9);
}

TEST(WalltimeCap, ZeroCapIsNoop) {
  Trace trace;
  trace.add({"a", 0.0, 100.0, 1, false});
  enforce_walltime_cap(trace, {{"a", 1.0}}, 0.0);
  EXPECT_DOUBLE_EQ(trace.records()[0].duration, 100.0);
}

TEST(WalltimeCap, UsersWithoutTargetsOnlyClamped) {
  Trace trace;
  trace.add({"untargeted", 0.0, 9000.0, 1, false});
  enforce_walltime_cap(trace, {}, 1000.0);
  EXPECT_DOUBLE_EQ(trace.records()[0].duration, 1000.0);
}

}  // namespace
}  // namespace aequus::workload
