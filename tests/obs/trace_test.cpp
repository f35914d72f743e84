// Tests for chrome-trace span collection.  The trace state is process
// global, so every test starts from a clean stop+clear and the assertions
// are substring checks on the emitted JSON document.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/thread_pool.hpp"

namespace mldcs::obs {
namespace {

std::string flush_trace() {
  std::ostringstream os;
  write_trace_json(os);
  return os.str();
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_stop();
    trace_clear();
  }
  void TearDown() override {
    trace_stop();
    trace_clear();
  }
};

TEST_F(TraceTest, EmptyDocumentIsValidJson) {
  const std::string doc = flush_trace();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_EQ(count_occurrences(doc, "\"ph\""), 0u);
}

TEST_F(TraceTest, SpansIgnoredWhileStopped) {
  { const TraceSpan span("test.should_not_appear"); }
  const std::string doc = flush_trace();
  EXPECT_EQ(doc.find("test.should_not_appear"), std::string::npos);
}

TEST_F(TraceTest, RecordsCompleteEvents) {
  trace_start();
  EXPECT_TRUE(trace_enabled());
  { const TraceSpan span("test.outer"); }
  { const TraceSpan span("test.outer"); }
  trace_stop();
  EXPECT_FALSE(trace_enabled());

  const std::string doc = flush_trace();
  EXPECT_EQ(count_occurrences(doc, "\"test.outer\""), 2u);
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"X\""), 2u);
  EXPECT_NE(doc.find("\"dur\":"), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":"), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"mldcs\""), std::string::npos);
}

TEST_F(TraceTest, ControlCharactersInSpanNamesStayValidJson) {
  trace_start();
  { const TraceSpan span("test.tab\tand\nnewline\"quote"); }
  trace_stop();

  const std::string doc = flush_trace();
  // The only raw control character is the document's trailing newline.
  ASSERT_EQ(doc.back(), '\n');
  for (std::size_t i = 0; i + 1 < doc.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(doc[i]), 0x20u) << "at byte " << i;
  }
  EXPECT_NE(doc.find("\"test.tab and newline\\\"quote\""),
            std::string::npos);
}

TEST_F(TraceTest, FlushClearsBuffers) {
  trace_start();
  { const TraceSpan span("test.once"); }
  trace_stop();
  EXPECT_NE(flush_trace().find("test.once"), std::string::npos);
  EXPECT_EQ(flush_trace().find("test.once"), std::string::npos);
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
  trace_start();
  { const TraceSpan span("test.dropped"); }
  trace_stop();
  trace_clear();
  EXPECT_EQ(flush_trace().find("test.dropped"), std::string::npos);
}

TEST_F(TraceTest, SpanArmedAtConstructionOutlivesStop) {
  // The span decides at construction; stopping mid-span still records it.
  trace_start();
  std::string doc;
  {
    const TraceSpan span("test.straddles_stop");
    trace_stop();
  }
  doc = flush_trace();
  EXPECT_NE(doc.find("test.straddles_stop"), std::string::npos);
}

TEST_F(TraceTest, MultiThreadSpansAllFlushedWithDistinctTids) {
  trace_start();
  sim::ThreadPool pool(4);
  pool.parallel_for(8, [](std::size_t) {
    const TraceSpan span("test.worker");
  });
  trace_stop();
  const std::string doc = flush_trace();
  EXPECT_EQ(count_occurrences(doc, "\"test.worker\""), 8u);
  EXPECT_NE(doc.find("\"tid\":"), std::string::npos);
}

}  // namespace
}  // namespace mldcs::obs
