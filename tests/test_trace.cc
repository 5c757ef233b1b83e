// Unit tests for the trace module: event model, module map, the text
// raw-log format, the Raw Log Parser, and the Stack Partition Module.
#include <gtest/gtest.h>

#include <sstream>

#include "trace/event.h"
#include "trace/module_map.h"
#include "trace/parser.h"
#include "trace/partition.h"
#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace {
namespace {

// --------------------------------------------------------------- event ----

TEST(EventType, NamesRoundTrip) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto t = static_cast<EventType>(i);
    const auto back = event_type_from_name(event_type_name(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(event_type_from_name("NoSuchEvent").has_value());
}

TEST(EventType, IdsAreDense) {
  EXPECT_EQ(event_type_id(EventType::kSysCallEnter), 0);
  EXPECT_EQ(event_type_id(EventType::kUiMessage),
            static_cast<int>(kEventTypeCount) - 1);
}

// ----------------------------------------------------------- ModuleMap ----

ModuleMap two_module_map() {
  ModuleMap m;
  m.add_module({"app.exe", 0x1000, 0x1000});
  m.add_module({"lib.dll", 0x10000, 0x1000});
  m.add_symbol(0x10000, "f0");
  m.add_symbol(0x10100, "f1");
  return m;
}

TEST(ModuleMap, FindModuleByRange) {
  const ModuleMap m = two_module_map();
  ASSERT_NE(m.find_module(0x1000), nullptr);
  EXPECT_EQ(m.find_module(0x1000)->name, "app.exe");
  EXPECT_EQ(m.find_module(0x1FFF)->name, "app.exe");
  EXPECT_EQ(m.find_module(0x2000), nullptr);  // one past the end
  EXPECT_EQ(m.find_module(0xFFF), nullptr);   // one before the start
  EXPECT_EQ(m.find_module(0x10800)->name, "lib.dll");
}

TEST(ModuleMap, ResolveNearestPrecedingSymbol) {
  const ModuleMap m = two_module_map();
  EXPECT_EQ(m.resolve(0x10000).function, "f0");
  EXPECT_EQ(m.resolve(0x100FF).function, "f0");
  EXPECT_EQ(m.resolve(0x10100).function, "f1");
  EXPECT_EQ(m.resolve(0x10FFF).function, "f1");
  // Mapped module without any symbol at/below the address.
  EXPECT_EQ(m.resolve(0x1500).function, "");
  EXPECT_EQ(m.resolve(0x1500).module->name, "app.exe");
  // Unmapped address.
  EXPECT_EQ(m.resolve(0x99999999).module, nullptr);
}

TEST(ModuleMap, RejectsOverlapsAndStraySymbols) {
  ModuleMap m = two_module_map();
  EXPECT_THROW(m.add_module({"bad.dll", 0x1800, 0x1000}), std::logic_error);
  EXPECT_THROW(m.add_module({"bad.dll", 0x800, 0x1000}), std::logic_error);
  EXPECT_THROW(m.add_module({"zero.dll", 0x50000, 0}), std::logic_error);
  EXPECT_THROW(m.add_symbol(0x99999999, "ghost"), std::logic_error);
}

// -------------------------------------------------- raw log + parser ----

util::StatusOr<RawLog> read_text(const std::string& text) {
  std::istringstream is(text);
  return read_raw_log_text(is);
}

RawLog make_raw_log() {
  RawLog log;
  log.process_name = "app.exe";
  log.modules.push_back({0x140000000, 0x10000, "app.exe"});
  log.modules.push_back({0x7FF800000000, 0x10000, "lib.dll"});
  log.symbols.push_back({0x7FF800001000, "LibFunc"});
  RawEvent e1;
  e1.seq = 0;
  e1.tid = 1;
  e1.type = EventType::kFileRead;
  e1.stack = {0x7FF800001010, 0x140001000, 0x140000100};
  RawEvent e2;
  e2.seq = 1;
  e2.tid = 1;
  e2.type = EventType::kNetworkSend;
  e2.stack = {0x7FF800001020, 0x20000000100, 0x140000100};  // unmapped frame
  log.events = {e1, e2};
  return log;
}

TEST(RawLogParser, TextRoundTripMatchesInMemoryParse) {
  const RawLog raw = make_raw_log();
  const RawLogParser parser;
  const ParsedTrace from_text =
      parser.parse_raw(read_text(raw_log_to_string(raw)).value());
  const ParsedTrace from_raw = parser.parse_raw(raw);
  EXPECT_EQ(from_text.log.process_name, from_raw.log.process_name);
  ASSERT_EQ(from_text.log.events.size(), from_raw.log.events.size());
  for (std::size_t i = 0; i < from_text.log.events.size(); ++i) {
    EXPECT_EQ(from_text.log.events[i], from_raw.log.events[i]);
  }
}

TEST(RawLogParser, SymbolicatesFrames) {
  const ParsedTrace t = RawLogParser().parse_raw(make_raw_log());
  ASSERT_EQ(t.log.events.size(), 2u);
  const Event& e1 = t.log.events[0];
  ASSERT_EQ(e1.stack.size(), 3u);
  EXPECT_EQ(e1.stack[0].module, "lib.dll");
  EXPECT_EQ(e1.stack[0].function, "LibFunc");
  EXPECT_EQ(e1.stack[1].module, "app.exe");
  EXPECT_EQ(e1.stack[1].function, "");  // app image ships no symbols
  // The injected (unmapped) frame resolves to nothing.
  const Event& e2 = t.log.events[1];
  EXPECT_EQ(e2.stack[1].module, "");
  EXPECT_EQ(e2.stack[1].function, "");
}

TEST(RawLogParser, PreservesEventMetadata) {
  const ParsedTrace t = RawLogParser().parse_raw(make_raw_log());
  EXPECT_EQ(t.log.events[0].seq, 0u);
  EXPECT_EQ(t.log.events[0].type, EventType::kFileRead);
  EXPECT_EQ(t.log.events[1].type, EventType::kNetworkSend);
  EXPECT_EQ(t.log.events[1].tid, 1u);
}

TEST(RawLogParser, IgnoresCommentsAndBlankLines) {
  const std::string text =
      "# comment\n\nPROCESS a.exe\n# another\nEVENT 0 1 FileRead\n";
  const RawLog t = read_text(text).value();
  EXPECT_EQ(t.process_name, "a.exe");
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_TRUE(t.events[0].stack.empty());
}

TEST(RawLogParser, ReportsErrorsWithLineNumbers) {
  const auto expect_error_at = [](const std::string& text,
                                  std::size_t line) {
    const util::StatusOr<RawLog> got = read_text(text);
    ASSERT_FALSE(got.ok()) << "expected kCorruptInput for: " << text;
    EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput) << text;
    EXPECT_NE(got.status().message().find(
                  "line " + std::to_string(line) + ":"),
              std::string::npos)
        << got.status().message();
  };
  expect_error_at("STACK 0x10\n", 1);                       // stack w/o event
  expect_error_at("PROCESS a\nEVENT 0 1 NoSuchType\n", 2);  // bad type
  expect_error_at("EVENT zz 1 FileRead\n", 1);              // bad decimal
  expect_error_at("MODULE 0x0 0x10 m\nSYMBOL 0x99 f\n", 2);  // stray symbol
  expect_error_at("FROB x\n", 1);                           // unknown record
  expect_error_at("MODULE 0x10 xyz m\n", 1);                // bad hex
  expect_error_at("EVENT 0 1 FileRead extra\n", 1);         // arity
}

TEST(RawLogParser, RejectsOverlappingModules) {
  const util::StatusOr<RawLog> got =
      read_text("MODULE 0x1000 0x1000 a\nMODULE 0x1800 0x1000 b\n");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCorruptInput);
}

// ----------------------------------------------------- StackPartition ----

TEST(StackPartitioner, SplitsAppAndSystemFrames) {
  const ParsedTrace t = RawLogParser().parse_raw(make_raw_log());
  const StackPartitioner part("app.exe");
  const PartitionedEvent pe = part.partition(t.log.events[0]);
  EXPECT_EQ(pe.seq, 0u);
  EXPECT_EQ(pe.type, EventType::kFileRead);
  ASSERT_EQ(pe.system_stack.size(), 1u);
  EXPECT_EQ(pe.system_stack[0].module, "lib.dll");
  // Application walk is outermost-first.
  ASSERT_EQ(pe.app_stack.size(), 2u);
  EXPECT_EQ(pe.app_stack[0], 0x140000100u);
  EXPECT_EQ(pe.app_stack[1], 0x140001000u);
}

TEST(StackPartitioner, UnmappedFramesCountAsApplication) {
  const ParsedTrace t = RawLogParser().parse_raw(make_raw_log());
  const PartitionedEvent pe =
      StackPartitioner("app.exe").partition(t.log.events[1]);
  // The injected 0x20000000100 frame has no module record: application side.
  ASSERT_EQ(pe.app_stack.size(), 2u);
  EXPECT_EQ(pe.app_stack[1], 0x20000000100u);
  EXPECT_EQ(pe.system_stack.size(), 1u);
}

TEST(StackPartitioner, WholeLogPartition) {
  const ParsedTrace t = RawLogParser().parse_raw(make_raw_log());
  const PartitionedLog pl = StackPartitioner("app.exe").partition(t.log);
  EXPECT_EQ(pl.process_name, "app.exe");
  EXPECT_EQ(pl.events.size(), 2u);
}

// ------------------------------------------------------- serialization ----

TEST(RawLog, WriterEmitsExpectedRecords) {
  std::ostringstream os;
  write_raw_log(make_raw_log(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("PROCESS app.exe"), std::string::npos);
  EXPECT_NE(text.find("MODULE 0x0000000140000000"), std::string::npos);
  EXPECT_NE(text.find("SYMBOL 0x00007ff800001000 LibFunc"),
            std::string::npos);
  EXPECT_NE(text.find("EVENT 0 1 FileRead"), std::string::npos);
  EXPECT_NE(text.find("STACK 0x00007ff800001010"), std::string::npos);
}

}  // namespace
}  // namespace leaps::trace
