#include "service/json_protocol.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/json_writer.h"

namespace psse::service {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ProtocolError("JSON parse error at offset " +
                        std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n] != '\0') ++n;
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        if (consume_word("true")) {
          v.boolean = true;
        } else if (consume_word("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_word("null")) fail("bad literal");
        return JsonValue{};
      }
      default:
        return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          out += decode_unicode_escape();
          break;
        default:
          fail("bad escape");
      }
    }
  }

  std::string decode_unicode_escape() {
    unsigned cp = hex4();
    // Surrogate pair: a high surrogate must be followed by \uDC00..\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 < s_.size() && s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
        pos_ += 2;
        unsigned lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("lone high surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone low surrogate");
    }
    // UTF-8 encode.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= s_.size()) fail("truncated \\u escape");
      char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number: " + tok);
    // strtod accepts overflowing literals ("1e999" -> +-HUGE_VAL) without
    // complaint; a non-finite value entering the request pipeline turns
    // into NaN-poisoned limits downstream, so reject it here, in band.
    if (!std::isfinite(d)) fail("number out of range: " + tok);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = d;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Request field extraction
// ---------------------------------------------------------------------------

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         JsonValue::Type type, const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != type) {
    throw ProtocolError(std::string("request needs ") + what);
  }
  return *v;
}

std::string optional_string(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return "";
  if (v->type != JsonValue::Type::kString) {
    throw ProtocolError("field \"" + key + "\" must be a string");
  }
  return v->string;
}

double optional_number(const JsonValue& obj, const std::string& key,
                       double fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kNumber) {
    throw ProtocolError("field \"" + key + "\" must be a number");
  }
  return v->number;
}

bool optional_bool(const JsonValue& obj, const std::string& key,
                   bool fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != JsonValue::Type::kBool) {
    throw ProtocolError("field \"" + key + "\" must be a boolean");
  }
  return v->boolean;
}

/// Deadlines must be finite and non-negative; number() already rejects the
/// non-finite literals, this catches "-5".
double time_limit_field(const JsonValue& obj) {
  const double limit = optional_number(obj, "time_limit", 0);
  if (limit < 0) {
    throw ProtocolError("field \"time_limit\" must be non-negative");
  }
  return limit;
}

core::Scenario load_request_scenario(const JsonValue& obj) {
  const std::string text = optional_string(obj, "scenario");
  const std::string file = optional_string(obj, "scenario_file");
  if (text.empty() == file.empty()) {
    throw ProtocolError(
        "request needs exactly one of \"scenario\" (inline text) or "
        "\"scenario_file\" (path)");
  }
  if (!file.empty()) return core::Scenario::load(file);
  std::istringstream in(text);
  return core::Scenario::parse(in, "<request scenario>");
}

std::string fp_hex(std::uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

}  // namespace

ParsedRequest parse_request(const std::string& line) {
  const JsonValue root = JsonParser(line).parse();
  if (root.type != JsonValue::Type::kObject) {
    throw ProtocolError("request must be a JSON object");
  }
  const std::string op =
      require(root, "op", JsonValue::Type::kString, "a string \"op\"")
          .string;

  ParsedRequest out;
  out.id = optional_string(root, "id");
  if (op == "stats") {
    out.op = ParsedRequest::Op::kStats;
    return out;
  }
  if (op == "verify") {
    out.op = ParsedRequest::Op::kVerify;
    out.verify.id = out.id;
    out.verify.scenario = load_request_scenario(root);
    out.verify.time_limit_seconds = time_limit_field(root);
    const double portfolio = optional_number(root, "portfolio", 0);
    // Range-check before the size_t cast: converting an out-of-range
    // double (say 1e300) to an integer is undefined behaviour, so the old
    // "cast and compare" integrality test was itself the bug for the very
    // inputs it should have rejected.
    constexpr double kMaxPortfolio = 4096;
    if (!(portfolio >= 0) || portfolio > kMaxPortfolio ||
        std::floor(portfolio) != portfolio) {
      throw ProtocolError(
          "field \"portfolio\" must be an integer in 0..4096");
    }
    out.verify.portfolio = static_cast<std::size_t>(portfolio);
    const std::string mode = optional_string(root, "portfolio_mode");
    if (mode == "cube") {
      out.verify.portfolio_cube = true;
    } else if (!mode.empty() && mode != "race") {
      throw ProtocolError(
          "field \"portfolio_mode\" must be \"race\" or \"cube\"");
    }
    out.verify.use_memo = optional_bool(root, "memo", true);
    out.verify.use_screen = optional_bool(root, "screen", true);
    return out;
  }
  if (op == "sweep") {
    out.op = ParsedRequest::Op::kSweep;
    out.sweep.id = out.id;
    out.sweep.scenario = load_request_scenario(root);
    out.sweep.axis = parse_sweep_axis(
        require(root, "axis", JsonValue::Type::kString, "a string \"axis\"")
            .string);
    const JsonValue* values = root.find("values");
    const bool has_range = root.find("from") != nullptr ||
                           root.find("to") != nullptr ||
                           root.find("step") != nullptr;
    if ((values != nullptr) == has_range) {
      throw ProtocolError(
          "sweep needs exactly one of \"values\" or \"from\"/\"to\"/"
          "\"step\"");
    }
    if (values != nullptr) {
      if (values->type != JsonValue::Type::kArray || values->array.empty()) {
        throw ProtocolError("field \"values\" must be a non-empty array");
      }
      for (const JsonValue& v : values->array) {
        if (v.type != JsonValue::Type::kNumber) {
          throw ProtocolError("field \"values\" must contain only numbers");
        }
        out.sweep.values.push_back(v.number);
      }
    } else {
      if (root.find("from") == nullptr || root.find("to") == nullptr ||
          root.find("step") == nullptr) {
        throw ProtocolError(
            "sweep range needs all of \"from\", \"to\", and \"step\"");
      }
      out.sweep.has_range = true;
      out.sweep.range_from = optional_number(root, "from", 0);
      out.sweep.range_to = optional_number(root, "to", 0);
      out.sweep.range_step = optional_number(root, "step", 0);
      // Degenerate ranges (zero step, step away from "to") are validated
      // by expand_sweep, whose errors come back in band per sweep.
    }
    out.sweep.time_limit_seconds = time_limit_field(root);
    out.sweep.use_memo = optional_bool(root, "memo", true);
    out.sweep.use_screen = optional_bool(root, "screen", true);
    return out;
  }
  throw ProtocolError("unknown op \"" + op +
                      "\" (expected verify, sweep, or stats)");
}

std::string encode_response(const ServiceResponse& response) {
  obs::JsonWriter w;
  w.field("id", response.id).field("ok", response.ok());
  if (!response.ok()) {
    w.field("error", response.error);
    if (response.sweep_index >= 0) {
      w.field("sweep_index", response.sweep_index);
    }
    return w.str();
  }
  w.field("verdict", smt::to_cstring(response.verdict));
  w.field_raw("altered", obs::json_int_array(response.altered_measurements));
  w.field("solve_s", response.solve_seconds)
      .field("queue_s", response.queue_seconds)
      .field("session_hit", response.session_hit)
      .field("memo_hit", response.memo_hit)
      .field("screened", response.screened)
      .field("implied", response.implied)
      .field("screen_s", response.screen_seconds)
      .field("family", fp_hex(response.family))
      .field("fp", fp_hex(response.fingerprint));
  if (!response.winner.empty()) w.field("winner", response.winner);
  w.field("decisions", response.decisions)
      .field("conflicts", response.conflicts)
      .field("pivots", response.pivots);
  if (response.sweep_index >= 0) {
    w.field("sweep_index", response.sweep_index);
  }
  if (response.implied) w.field("implied_by", response.implied_by);
  return w.str();
}

std::string encode_stats(const ServiceStats& stats) {
  obs::JsonWriter w;
  w.field("ok", true)
      .field("op", "stats")
      .field("requests", stats.requests)
      .field("errors", stats.errors)
      .field("sat", stats.sat)
      .field("unsat", stats.unsat)
      .field("unknown", stats.unknown)
      .field("screened", stats.screened)
      .field("implied", stats.implied)
      .field("session_hits", stats.sessions.hits)
      .field("session_misses", stats.sessions.misses)
      .field("session_evictions", stats.sessions.evictions)
      .field("idle_sessions",
             static_cast<std::uint64_t>(stats.sessions.idle_sessions))
      .field("families", static_cast<std::uint64_t>(stats.sessions.families))
      .field("memo_hits", stats.memo.hits)
      .field("memo_misses", stats.memo.misses)
      .field("memo_size", static_cast<std::uint64_t>(stats.memo.size))
      .field("queue_p50_us", stats.queue_p50_us)
      .field("queue_p95_us", stats.queue_p95_us)
      .field("queue_p99_us", stats.queue_p99_us)
      .field("solve_p50_us", stats.solve_p50_us)
      .field("solve_p95_us", stats.solve_p95_us)
      .field("solve_p99_us", stats.solve_p99_us)
      .field("total_p50_us", stats.total_p50_us)
      .field("total_p95_us", stats.total_p95_us)
      .field("total_p99_us", stats.total_p99_us);
  return w.str();
}

std::string encode_error(const std::string& id, const std::string& message) {
  obs::JsonWriter w;
  w.field("id", id).field("ok", false).field("error", message);
  return w.str();
}

}  // namespace psse::service
