#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/running_example.hpp"
#include "obs/trace.hpp"
#include "support/minijson.hpp"

namespace rsnsec {
namespace {

PipelineResult run_example() {
  benchgen::RunningExample ex = benchgen::make_running_example();
  SecureFlowTool tool(ex.circuit, ex.doc.network, ex.spec);
  return tool.run();
}

TEST(Report, RowAccumulatorAverages) {
  RowAccumulator acc("demo");
  acc.set_structure(10, 100, 5);
  PipelineResult a;
  a.initial_violating_registers = 4;
  a.pure.applied_changes = 2;
  a.hybrid.applied_changes = 4;
  a.t_total = 1.0;
  PipelineResult b;
  b.initial_violating_registers = 2;
  b.pure.applied_changes = 0;
  b.hybrid.applied_changes = 2;
  b.t_total = 3.0;
  acc.add(a);
  acc.add(b);
  acc.add_skipped_insecure();
  BenchRow row = acc.finish();
  EXPECT_EQ(row.runs, 2);
  EXPECT_DOUBLE_EQ(row.avg_violating_registers, 3.0);
  EXPECT_DOUBLE_EQ(row.avg_changes_pure, 1.0);
  EXPECT_DOUBLE_EQ(row.avg_changes_hybrid, 3.0);
  EXPECT_DOUBLE_EQ(row.avg_changes_total, 4.0);
  EXPECT_DOUBLE_EQ(row.t_total, 2.0);
  EXPECT_EQ(row.skipped_insecure, 1);
}

TEST(Report, JsonContainsAllSections) {
  PipelineResult r = run_example();
  std::ostringstream os;
  write_json(os, r);
  const std::string s = os.str();
  for (const char* key :
       {"\"secured\": true", "\"initial_violating_registers\"",
        "\"dependency\"", "\"sat_calls\"", "\"changes\"", "\"log\"",
        "\"runtime_seconds\""}) {
    EXPECT_NE(s.find(key), std::string::npos) << key;
  }
  // One log entry per applied change.
  std::size_t notes = 0, pos = 0;
  while ((pos = s.find("\"note\"", pos)) != std::string::npos) {
    ++notes;
    pos += 6;
  }
  EXPECT_EQ(notes, r.changes.size());
}

TEST(Report, JsonIsStrictlyValid) {
  PipelineResult r = run_example();
  std::ostringstream os;
  write_json(os, r);
  EXPECT_TRUE(testsupport::is_valid_json(os.str())) << os.str();
}

TEST(Report, HostileChangeNotesSurviveJsonRoundTrip) {
  // A change note carrying every character class the escaper must
  // handle: quote, backslash, newline, tab and a raw control byte.
  PipelineResult r;
  r.secured = true;
  security::AppliedChange evil;
  evil.note = std::string("evil\n\t\"quoted\" \\slash\\ ctl:") + '\x01';
  evil.rewire_operations = 2;
  r.changes.push_back(evil);
  r.changes.push_back({});  // second entry: comma placement

  std::ostringstream os;
  write_json(os, r);
  const std::string s = os.str();
  ASSERT_TRUE(testsupport::is_valid_json(s)) << s;
  EXPECT_NE(s.find("evil\\n\\t\\\"quoted\\\" \\\\slash\\\\ ctl:\\u0001"),
            std::string::npos)
      << s;
  // The raw bytes must not leak into the output unescaped.
  EXPECT_EQ(s.find('\x01'), std::string::npos);
}

TEST(Report, ObservabilitySectionAppearsWhenSessionActive) {
  obs::TraceSession session;
  session.counter("sat.solve_calls").add(7);
  obs::TraceSession::set_active(&session);
  PipelineResult r;
  std::ostringstream os;
  write_json(os, r);
  obs::TraceSession::set_active(nullptr);
  EXPECT_TRUE(testsupport::is_valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"observability\""), std::string::npos);
  EXPECT_NE(os.str().find("\"sat.solve_calls\": 7"), std::string::npos);

  // Without a session the section is absent and the JSON still valid.
  std::ostringstream os2;
  write_json(os2, r);
  EXPECT_TRUE(testsupport::is_valid_json(os2.str()));
  EXPECT_EQ(os2.str().find("\"observability\""), std::string::npos);
}

}  // namespace
}  // namespace rsnsec
