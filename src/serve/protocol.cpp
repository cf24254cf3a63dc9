#include "serve/protocol.hpp"

#include <cmath>
#include <utility>

#include "util/minijson.hpp"
#include "util/strings.hpp"

namespace rsnsec::serve {

const char* serve_code_name(ServeCode code) {
  switch (code) {
    case ServeCode::Ok: return "OK";
    case ServeCode::MalformedFrame: return "SRV001";
    case ServeCode::Oversize: return "SRV002";
    case ServeCode::UnknownCommand: return "SRV003";
    case ServeCode::BadField: return "SRV004";
    case ServeCode::Busy: return "SRV005";
    case ServeCode::ShuttingDown: return "SRV006";
    case ServeCode::Internal: return "SRV007";
  }
  return "SRV???";
}

const char* command_name(Command c) {
  switch (c) {
    case Command::Ping: return "ping";
    case Command::Analyze: return "analyze";
    case Command::Secure: return "secure";
    case Command::Certify: return "certify";
    case Command::Attack: return "attack";
    case Command::StoreStats: return "store-stats";
    case Command::Stats: return "stats";
    case Command::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

ParseOutcome fail(ServeCode code, std::string message) {
  ParseOutcome o;
  o.code = code;
  o.message = std::move(message);
  return o;
}

std::optional<Command> lookup_command(std::string_view name) {
  if (name == "ping") return Command::Ping;
  if (name == "analyze") return Command::Analyze;
  if (name == "secure") return Command::Secure;
  if (name == "certify") return Command::Certify;
  if (name == "attack") return Command::Attack;
  if (name == "store-stats") return Command::StoreStats;
  if (name == "stats") return Command::Stats;
  if (name == "shutdown") return Command::Shutdown;
  return std::nullopt;
}

/// True if the request of `command` reads top-level field `key`.
bool reads_field(Command command, std::string_view key) {
  if (key == "command" || key == "id" || key == "tenant" || key == "options")
    return true;
  switch (command) {
    case Command::Analyze:
    case Command::Secure:
    case Command::Certify:
      return key == "rsn" || key == "verilog" || key == "spec";
    case Command::Attack:
      return key == "benchmark" || key == "seed";
    default:
      return false;
  }
}

/// Required string payload field, moved out of the parsed frame;
/// empty-string payloads are as useless as absent ones, so both are
/// rejected.
bool take_payload(JsonValue& obj, std::string_view key, std::string& out,
                  std::string& error) {
  JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string() || v->string.empty()) {
    error = "field '" + std::string(key) +
            "' must be a non-empty string payload";
    return false;
  }
  out = std::move(v->string);
  return true;
}

}  // namespace

ParseOutcome parse_request(std::string_view line) {
  JsonParseResult parsed = parse_json(line);
  if (!parsed.ok())
    return fail(ServeCode::MalformedFrame,
                "malformed frame at byte " +
                    std::to_string(parsed.error_pos) + ": " + parsed.error);
  JsonValue& root = *parsed.value;
  if (!root.is_object())
    return fail(ServeCode::MalformedFrame,
                "request frame must be a JSON object");

  const JsonValue* cmd = root.find("command");
  if (cmd == nullptr || !cmd->is_string())
    return fail(ServeCode::BadField,
                "field 'command' must be a string");
  std::optional<Command> command = lookup_command(cmd->string);
  if (!command)
    return fail(ServeCode::UnknownCommand,
                "unknown command '" + cmd->string +
                    "' (try: ping, analyze, secure, certify, attack, "
                    "store-stats, stats, shutdown)");

  // A field the command does not read is the client's mistake, like an
  // option the CLI command does not take: ignoring it would run the
  // request with settings the client did not ask for.
  for (const auto& [key, value] : root.object)
    if (!reads_field(*command, key))
      return fail(ServeCode::BadField, "unknown field '" + key + "' for " +
                                           cmd->string + " requests");

  Request req;
  req.command = *command;

  if (const JsonValue* id = root.find("id")) {
    if (id->is_string()) {
      req.id = id->string;
    } else if (id->is_number()) {
      // Integral ids round-trip exactly; anything fancier the client
      // should send as a string. Converting a number outside long long
      // (1e400 parses as infinity) would be undefined.
      if (!(std::fabs(id->number) < 0x1p63))
        return fail(ServeCode::BadField, "field 'id' is out of range");
      req.id = std::to_string(static_cast<long long>(id->number));
    } else if (!id->is_null()) {
      return fail(ServeCode::BadField,
                  "field 'id' must be a string or number");
    }
  }
  if (const JsonValue* tenant = root.find("tenant")) {
    if (!tenant->is_string() || tenant->string.empty())
      return fail(ServeCode::BadField,
                  "field 'tenant' must be a non-empty string");
    req.tenant = tenant->string;
  }

  std::string error;
  switch (req.command) {
    case Command::Analyze:
    case Command::Secure:
    case Command::Certify:
      if (!take_payload(root, "rsn", req.rsn, error) ||
          !take_payload(root, "verilog", req.verilog, error) ||
          !take_payload(root, "spec", req.spec, error))
        return fail(ServeCode::BadField, error);
      break;
    case Command::Attack: {
      const JsonValue* b = root.find("benchmark");
      if (b == nullptr || !b->is_string() || b->string.empty())
        return fail(ServeCode::BadField,
                    "field 'benchmark' must be a non-empty string");
      req.benchmark = b->string;
      if (const JsonValue* seed = root.find("seed")) {
        if (!seed->is_number() || seed->number < 0 ||
            seed->number != std::floor(seed->number) ||
            seed->number >= 0x1p64)
          return fail(ServeCode::BadField,
                      "field 'seed' must be a non-negative integer below "
                      "2^64");
        req.seed = static_cast<std::uint64_t>(seed->number);
      }
      break;
    }
    case Command::Ping:
    case Command::StoreStats:
    case Command::Stats:
    case Command::Shutdown:
      break;
  }

  if (const JsonValue* options = root.find("options")) {
    if (!options->is_object())
      return fail(ServeCode::BadField, "field 'options' must be an object");
    for (const auto& [key, value] : options->object)
      if (key != "structural" && key != "no_ternary" && key != "verify")
        return fail(ServeCode::BadField,
                    "unknown option '" + key +
                        "' (try: structural, no_ternary, verify)");
    auto bool_option = [&](std::string_view key, bool& out) {
      const JsonValue* v = options->find(key);
      if (v == nullptr) return true;
      if (!v->is_bool()) {
        error = "option '" + std::string(key) + "' must be a boolean";
        return false;
      }
      out = v->boolean;
      return true;
    };
    if (!bool_option("structural", req.structural) ||
        !bool_option("no_ternary", req.no_ternary) ||
        !bool_option("verify", req.verify))
      return fail(ServeCode::BadField, error);
  }

  ParseOutcome o;
  o.request = std::move(req);
  return o;
}

namespace {

void append_id(std::string& out, const std::string& id) {
  if (id.empty()) {
    out += "\"id\": null";
  } else {
    out += "\"id\": \"";
    out += json_escape(id);
    out += '"';
  }
}

}  // namespace

std::string ok_reply(const std::string& id, std::string_view result_json,
                     std::string_view server_json) {
  std::string out = "{";
  append_id(out, id);
  out += ", \"ok\": true, \"result\": ";
  out += result_json;
  if (!server_json.empty()) {
    out += ", \"server\": ";
    out += server_json;
  }
  out += "}\n";
  return out;
}

std::string error_reply(const std::string& id, ServeCode code,
                        const std::string& message,
                        std::uint64_t retry_after_ms) {
  std::string out = "{";
  append_id(out, id);
  out += ", \"ok\": false, \"error\": {\"code\": \"";
  out += serve_code_name(code);
  out += "\", \"message\": \"";
  out += json_escape(message);
  out += '"';
  if (retry_after_ms > 0) {
    out += ", \"retry_after_ms\": ";
    out += std::to_string(retry_after_ms);
  }
  out += "}}\n";
  return out;
}

}  // namespace rsnsec::serve
