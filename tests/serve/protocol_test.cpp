// Hostile-input contract of the serve wire protocol: every malformed,
// truncated, oversized or type-confused frame maps to a stable SRV code
// (never a crash, never an uncaught exception), and every reply the
// daemon renders is itself well-formed single-line JSON.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "support/table1_frame.hpp"
#include "util/minijson.hpp"
#include "util/strings.hpp"

namespace rsnsec::serve {
namespace {

ServeCode code_of(const std::string& line) {
  return parse_request(line).code;
}

TEST(ProtocolParse, EmptyAndGarbageFramesAreMalformed) {
  EXPECT_EQ(code_of(""), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("   "), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("not json at all"), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("\x01\x02\xff\xfe"), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of(std::string("\0\0\0", 3)), ServeCode::MalformedFrame);
}

TEST(ProtocolParse, TruncatedJsonIsMalformedWithBytePosition) {
  ParseOutcome o = parse_request("{\"command\": \"ping\"");
  EXPECT_EQ(o.code, ServeCode::MalformedFrame);
  EXPECT_NE(o.message.find("byte"), std::string::npos);
  EXPECT_EQ(code_of("{\"command\": "), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("{\"command"), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("[1, 2,"), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("\"unterminated"), ServeCode::MalformedFrame);
}

TEST(ProtocolParse, TrailingBytesAfterObjectAreMalformed) {
  EXPECT_EQ(code_of("{\"command\": \"ping\"} extra"),
            ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("{\"command\": \"ping\"}{}"), ServeCode::MalformedFrame);
}

TEST(ProtocolParse, NonObjectFramesAreMalformed) {
  EXPECT_EQ(code_of("42"), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("[\"ping\"]"), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("\"ping\""), ServeCode::MalformedFrame);
  EXPECT_EQ(code_of("null"), ServeCode::MalformedFrame);
}

TEST(ProtocolParse, DeeplyNestedFrameIsRejectedNotStackOverflow) {
  std::string bomb;
  for (int i = 0; i < 10000; ++i) bomb += '[';
  EXPECT_EQ(code_of(bomb), ServeCode::MalformedFrame);
  std::string obj_bomb = "{\"command\": ";
  for (int i = 0; i < 10000; ++i) obj_bomb += "[";
  EXPECT_EQ(code_of(obj_bomb), ServeCode::MalformedFrame);
}

TEST(ProtocolParse, MissingOrMistypedCommandIsBadField) {
  EXPECT_EQ(code_of("{}"), ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": 3}"), ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": null}"), ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": [\"analyze\"]}"), ServeCode::BadField);
}

TEST(ProtocolParse, UnknownCommandListsTheCatalog) {
  ParseOutcome o = parse_request("{\"command\": \"frobnicate\"}");
  EXPECT_EQ(o.code, ServeCode::UnknownCommand);
  EXPECT_NE(o.message.find("analyze"), std::string::npos);
}

TEST(ProtocolParse, AnalyzeRequiresAllThreePayloads) {
  EXPECT_EQ(code_of("{\"command\": \"analyze\"}"), ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"analyze\", \"rsn\": \"x\"}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"analyze\", \"rsn\": \"x\", "
                    "\"verilog\": \"y\"}"),
            ServeCode::BadField);
  // Empty payloads are as useless as absent ones.
  EXPECT_EQ(code_of("{\"command\": \"analyze\", \"rsn\": \"\", "
                    "\"verilog\": \"y\", \"spec\": \"z\"}"),
            ServeCode::BadField);
  // Payloads of the wrong type never reach the parsers.
  EXPECT_EQ(code_of("{\"command\": \"analyze\", \"rsn\": 7, "
                    "\"verilog\": \"y\", \"spec\": \"z\"}"),
            ServeCode::BadField);
  ParseOutcome ok = parse_request(
      "{\"command\": \"analyze\", \"rsn\": \"x\", \"verilog\": \"y\", "
      "\"spec\": \"z\"}");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.request->rsn, "x");
  EXPECT_EQ(ok.request->tenant, "default");
}

TEST(ProtocolParse, AttackValidatesBenchmarkAndSeed) {
  EXPECT_EQ(code_of("{\"command\": \"attack\"}"), ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"attack\", \"benchmark\": \"\"}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"attack\", \"benchmark\": \"X\", "
                    "\"seed\": -1}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"attack\", \"benchmark\": \"X\", "
                    "\"seed\": 1.5}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"attack\", \"benchmark\": \"X\", "
                    "\"seed\": \"7\"}"),
            ServeCode::BadField);
  ParseOutcome ok = parse_request(
      "{\"command\": \"attack\", \"benchmark\": \"Mingle\", \"seed\": 9}");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.request->benchmark, "Mingle");
  EXPECT_EQ(ok.request->seed, 9u);
}

TEST(ProtocolParse, IdAcceptsStringNumberOrNull) {
  EXPECT_EQ(parse_request("{\"command\": \"ping\", \"id\": \"a7\"}")
                .request->id,
            "a7");
  EXPECT_EQ(parse_request("{\"command\": \"ping\", \"id\": 42}")
                .request->id,
            "42");
  EXPECT_EQ(parse_request("{\"command\": \"ping\", \"id\": null}")
                .request->id,
            "");
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"id\": true}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"id\": {}}"),
            ServeCode::BadField);
}

TEST(ProtocolParse, TenantMustBeNonEmptyString) {
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"tenant\": \"\"}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"tenant\": 5}"),
            ServeCode::BadField);
  EXPECT_EQ(parse_request("{\"command\": \"ping\", \"tenant\": \"acme\"}")
                .request->tenant,
            "acme");
}

TEST(ProtocolParse, OptionsAreTypeChecked) {
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"options\": 1}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"options\": "
                    "{\"structural\": 1}}"),
            ServeCode::BadField);
  ParseOutcome o = parse_request(
      "{\"command\": \"ping\", \"options\": {\"structural\": true, "
      "\"no_ternary\": true, \"verify\": false}}");
  ASSERT_TRUE(o.ok());
  EXPECT_TRUE(o.request->structural);
  EXPECT_TRUE(o.request->no_ternary);
  EXPECT_FALSE(o.request->verify);
}

TEST(ProtocolParse, FieldsTheCommandDoesNotReadAreBadField) {
  // A top-level "structural" (it belongs in "options") would otherwise
  // run exact mode without a word.
  ParseOutcome o = parse_request(
      "{\"command\": \"analyze\", \"rsn\": \"x\", \"verilog\": \"y\", "
      "\"spec\": \"z\", \"structural\": true}");
  EXPECT_EQ(o.code, ServeCode::BadField);
  EXPECT_NE(o.message.find("'structural'"), std::string::npos) << o.message;
  // Another command's payload is a field this one does not read.
  EXPECT_EQ(code_of("{\"command\": \"ping\", \"rsn\": \"x\"}"),
            ServeCode::BadField);
  EXPECT_EQ(code_of("{\"command\": \"attack\", \"benchmark\": \"Mingle\", "
                    "\"spec\": \"z\"}"),
            ServeCode::BadField);
  o = parse_request(
      "{\"command\": \"ping\", \"options\": {\"structual\": true}}");
  EXPECT_EQ(o.code, ServeCode::BadField);
  EXPECT_NE(o.message.find("'structual'"), std::string::npos) << o.message;
  // Every field a command reads is accepted.
  EXPECT_TRUE(parse_request("{\"command\": \"attack\", \"id\": 1, "
                            "\"tenant\": \"t\", \"benchmark\": \"Mingle\", "
                            "\"seed\": 3, \"options\": {\"verify\": true}}")
                  .ok());
}

TEST(ProtocolParse, UnicodeEscapesDecodeToUtf8) {
  ParseOutcome o = parse_request(
      "{\"command\": \"ping\", \"tenant\": \"\\u00e9\\u0041\"}");
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o.request->tenant, "\xc3\xa9" "A");
}

TEST(ProtocolParse, ServeOpenPayloadsArriveUnchanged) {
  // The eight designs of the serve_open benchmark workload: each payload
  // survives json_escape + parse_json, and parse_request hands it over
  // as sent.
  const char* const families[] = {"BasicSCB", "Mingle",       "TreeFlat",
                                  "TreeFlatEx", "q12710",     "TreeBalanced",
                                  "p22810",   "p93791"};
  for (std::size_t i = 0; i < std::size(families); ++i) {
    const Table1Frame f = table1_frame(families[i], i);
    for (const std::string* payload : {&f.rsn, &f.verilog, &f.spec}) {
      JsonParseResult r = parse_json("\"" + json_escape(*payload) + "\"");
      ASSERT_TRUE(r.ok()) << families[i] << ": " << r.error;
      EXPECT_EQ(r.value->string, *payload) << families[i];
    }
    ParseOutcome o = parse_request(f.frame);
    ASSERT_TRUE(o.ok()) << families[i] << ": " << o.message;
    EXPECT_EQ(o.request->command, Command::Analyze);
    EXPECT_EQ(o.request->id, std::to_string(i));
    EXPECT_EQ(o.request->rsn, f.rsn) << families[i];
    EXPECT_EQ(o.request->verilog, f.verilog) << families[i];
    EXPECT_EQ(o.request->spec, f.spec) << families[i];
  }
}

TEST(ProtocolReply, OkReplyIsOneValidJsonLine) {
  std::string reply = ok_reply("req-1", "{\"x\": 3}", "{\"seconds\": 0.5}");
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.back(), '\n');
  EXPECT_EQ(reply.find('\n'), reply.size() - 1);
  JsonParseResult parsed =
      parse_json(std::string_view(reply).substr(0, reply.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->string_field("id").value_or(""), "req-1");
  EXPECT_TRUE(parsed.value->bool_field("ok").value_or(false));
  ASSERT_NE(parsed.value->find("result"), nullptr);
  EXPECT_EQ(parsed.value->find("result")->number_field("x").value_or(0), 3);
  ASSERT_NE(parsed.value->find("server"), nullptr);
}

TEST(ProtocolReply, MissingIdEchoesNull) {
  std::string reply = ok_reply("", "true");
  JsonParseResult parsed =
      parse_json(std::string_view(reply).substr(0, reply.size() - 1));
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed.value->find("id"), nullptr);
  EXPECT_TRUE(parsed.value->find("id")->is_null());
}

TEST(ProtocolReply, ErrorReplyCarriesCodeAndRetryAfter) {
  std::string reply = error_reply("x", ServeCode::Busy, "queue full", 40);
  JsonParseResult parsed =
      parse_json(std::string_view(reply).substr(0, reply.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_FALSE(parsed.value->bool_field("ok").value_or(true));
  const JsonValue* error = parsed.value->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->string_field("code").value_or(""), "SRV005");
  EXPECT_EQ(error->number_field("retry_after_ms").value_or(0), 40);
  // Zero retry-after is omitted, not rendered as 0.
  std::string no_retry = error_reply("x", ServeCode::Internal, "boom");
  EXPECT_EQ(no_retry.find("retry_after_ms"), std::string::npos);
}

TEST(ProtocolReply, HostileIdAndMessageAreEscaped) {
  std::string reply = error_reply("a\"b\nc", ServeCode::Internal,
                                  "quote \" backslash \\ newline \n");
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "must stay one line";
  JsonParseResult parsed =
      parse_json(std::string_view(reply).substr(0, reply.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->string_field("id").value_or(""), "a\"b\nc");
}

TEST(ProtocolCodes, NamesAreStable) {
  EXPECT_STREQ(serve_code_name(ServeCode::MalformedFrame), "SRV001");
  EXPECT_STREQ(serve_code_name(ServeCode::Oversize), "SRV002");
  EXPECT_STREQ(serve_code_name(ServeCode::UnknownCommand), "SRV003");
  EXPECT_STREQ(serve_code_name(ServeCode::BadField), "SRV004");
  EXPECT_STREQ(serve_code_name(ServeCode::Busy), "SRV005");
  EXPECT_STREQ(serve_code_name(ServeCode::ShuttingDown), "SRV006");
  EXPECT_STREQ(serve_code_name(ServeCode::Internal), "SRV007");
}

}  // namespace
}  // namespace rsnsec::serve
