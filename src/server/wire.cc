#include "server/wire.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace gbkmv {
namespace server {

namespace {

// Recursive-descent scanner over the JSON subset in the header comment.
// Depth-bounded so hostile nesting cannot blow the stack.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view input) : s_(input) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ == s_.size();
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          default: return false;  // \uXXXX is outside the subset
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      out->push_back(c);
    }
    return false;
  }

  bool ParseNumber(double* out) {
    SkipWs();
    const char* begin = s_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return false;
    const size_t consumed = static_cast<size_t>(end - begin);
    if (pos_ + consumed > s_.size()) return false;
    pos_ += consumed;
    if (!std::isfinite(value)) return false;
    *out = value;
    return true;
  }

  bool ParseBool(bool* out) {
    SkipWs();
    if (s_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      *out = true;
      return true;
    }
    if (s_.substr(pos_).starts_with("false")) {
      pos_ += 5;
      *out = false;
      return true;
    }
    return false;
  }

  // How walking an object or array ended.
  enum class Walk {
    kOk,
    kWrongType,  // no '{' / '[' at the cursor
    kMalformed,  // bad key, missing ':' or ','
    kBadValue,   // the callback rejected a value
  };

  // The one loop over an object's keys: "key": value pairs separated by
  // ',' between braces. on_key(key) consumes the value at the cursor and
  // returns false when it is malformed.
  template <typename OnKey>
  Walk Object(OnKey&& on_key) {
    if (!Consume('{')) return Walk::kWrongType;
    if (Consume('}')) return Walk::kOk;
    std::string key;
    for (;;) {
      if (!ParseString(&key) || !Consume(':')) return Walk::kMalformed;
      if (!on_key(key)) return Walk::kBadValue;
      if (Consume('}')) return Walk::kOk;
      if (!Consume(',')) return Walk::kMalformed;
    }
  }

  // Array counterpart of Object(): on_element() consumes one value.
  template <typename OnElement>
  Walk Array(OnElement&& on_element) {
    if (!Consume('[')) return Walk::kWrongType;
    if (Consume(']')) return Walk::kOk;
    for (;;) {
      if (!on_element()) return Walk::kBadValue;
      if (Consume(']')) return Walk::kOk;
      if (!Consume(',')) return Walk::kMalformed;
    }
  }

  // Skips any value of the subset (for unknown keys).
  bool SkipValue(int depth = 0) {
    if (depth > 16) return false;
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == '{') {
      return Object([&](const std::string&) {
               return SkipValue(depth + 1);
             }) == Walk::kOk;
    }
    if (c == '[') {
      return Array([&] { return SkipValue(depth + 1); }) == Walk::kOk;
    }
    if (s_.substr(pos_).starts_with("null")) {
      pos_ += 4;
      return true;
    }
    bool b = false;
    if (ParseBool(&b)) return true;
    double d = 0.0;
    return ParseNumber(&d);
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

using Walk = JsonScanner::Walk;

// An array of uint32 element ids, normalised (MakeRecord).
bool ParseElements(JsonScanner& scanner, Record* out) {
  std::vector<uint32_t> elements;
  const Walk walk = scanner.Array([&] {
    double value = 0.0;
    if (!scanner.ParseNumber(&value) || value < 0 ||
        value > std::numeric_limits<uint32_t>::max() ||
        value != std::floor(value)) {
      return false;
    }
    elements.push_back(static_cast<uint32_t>(value));
    return true;
  });
  if (walk != Walk::kOk) return false;
  *out = MakeRecord(std::move(elements));
  return true;
}

bool ParseSizeT(JsonScanner& scanner, size_t* out) {
  double value = 0.0;
  if (!scanner.ParseNumber(&value)) return false;
  if (value < 0 || value != std::floor(value) || value > 1e15) return false;
  *out = static_cast<size_t>(value);
  return true;
}

// Parses `json` as exactly one object, handing each key to
// on_key(scanner, key), which consumes the value and returns OK or the
// error to answer. The object's own syntax errors name the body:
// "<name> must be a JSON object", "malformed <name>", "trailing bytes
// after <name>", all with status `code`.
template <typename OnKey>
Status ParseObject(std::string_view json, std::string_view name,
                   StatusCode code, OnKey&& on_key) {
  JsonScanner scanner(json);
  Status value_status;
  switch (scanner.Object([&](const std::string& key) {
    value_status = on_key(scanner, key);
    return value_status.ok();
  })) {
    case Walk::kOk:
      break;
    case Walk::kWrongType:
      return Status(code, std::string(name) + " must be a JSON object");
    case Walk::kMalformed:
      return Status(code, "malformed " + std::string(name));
    case Walk::kBadValue:
      return value_status;
  }
  if (!scanner.AtEnd()) {
    return Status(code, "trailing bytes after " + std::string(name));
  }
  return Status::OK();
}

Status MalformedValue(const std::string& key) {
  return Status::InvalidArgument("malformed value for \"" + key + "\"");
}

// The required, non-empty "elements" of a query or ingest body.
Status CheckElements(bool saw_elements, const Record& elements,
                     std::string_view body_name) {
  if (!saw_elements) {
    return Status::InvalidArgument(std::string(body_name) +
                                   " is missing \"elements\"");
  }
  if (elements.empty()) {
    return Status::InvalidArgument("\"elements\" must be non-empty");
  }
  return Status::OK();
}

// One {"id": n, "score": x} hit of a query result; other numeric fields
// are ignored, and an empty hit is malformed.
Status ParseHit(JsonScanner& scanner, QueryHit* hit) {
  size_t fields = 0;
  const Walk walk = scanner.Object([&](const std::string& field) {
    double value = 0.0;
    if (!scanner.ParseNumber(&value)) return false;
    if (field == "id") {
      hit->id = static_cast<RecordId>(value);
    } else if (field == "score") {
      hit->score = static_cast<float>(value);
    }
    ++fields;
    return true;
  });
  if (walk == Walk::kBadValue) return Status::Corruption("bad hit value");
  if (walk != Walk::kOk || fields == 0) return Status::Corruption("bad hit");
  return Status::OK();
}

void AppendEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

// Shortest float spelling that parses back bit-identically: %.9g on the
// widened double (float -> double is exact, 9 significant digits
// round-trip any float).
void AppendScore(float score, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(score));
  *out += buf;
}

}  // namespace

Result<QueryBody> ParseQueryBody(std::string_view json) {
  QueryBody body;
  bool saw_elements = false;
  GBKMV_RETURN_IF_ERROR(ParseObject(
      json, "query body", StatusCode::kInvalidArgument,
      [&](JsonScanner& scanner, const std::string& key) {
        bool ok = true;
        if (key == "elements") {
          ok = ParseElements(scanner, &body.elements);
          saw_elements = true;
        } else if (key == "threshold") {
          ok = scanner.ParseNumber(&body.threshold);
          if (ok && (body.threshold < 0.0 || body.threshold > 1.0)) {
            return Status::InvalidArgument("threshold must be in [0, 1]");
          }
          body.has_threshold = true;
        } else if (key == "top_k") {
          ok = ParseSizeT(scanner, &body.top_k);
        } else if (key == "scores") {
          ok = scanner.ParseBool(&body.want_scores);
        } else if (key == "stats") {
          ok = scanner.ParseBool(&body.want_stats);
        } else {
          ok = scanner.SkipValue();
        }
        return ok ? Status::OK() : MalformedValue(key);
      }));
  GBKMV_RETURN_IF_ERROR(
      CheckElements(saw_elements, body.elements, "query body"));
  return body;
}

Result<ReloadBody> ParseReloadBody(std::string_view json) {
  ReloadBody body;
  GBKMV_RETURN_IF_ERROR(ParseObject(
      json, "reload body", StatusCode::kInvalidArgument,
      [&](JsonScanner& scanner, const std::string& key) {
        const bool ok = key == "dir" ? scanner.ParseString(&body.dir)
                                     : scanner.SkipValue();
        return ok ? Status::OK() : MalformedValue(key);
      }));
  if (body.dir.empty()) {
    return Status::InvalidArgument("reload body is missing \"dir\"");
  }
  return body;
}

Result<IngestBody> ParseIngestBody(std::string_view json) {
  IngestBody body;
  bool saw_elements = false;
  GBKMV_RETURN_IF_ERROR(ParseObject(
      json, "ingest body", StatusCode::kInvalidArgument,
      [&](JsonScanner& scanner, const std::string& key) {
        saw_elements |= key == "elements";
        const bool ok = key == "elements"
                            ? ParseElements(scanner, &body.elements)
                            : scanner.SkipValue();
        return ok ? Status::OK() : MalformedValue(key);
      }));
  GBKMV_RETURN_IF_ERROR(
      CheckElements(saw_elements, body.elements, "ingest body"));
  return body;
}

Result<DeleteBody> ParseDeleteBody(std::string_view json) {
  DeleteBody body;
  bool saw_id = false;
  GBKMV_RETURN_IF_ERROR(ParseObject(
      json, "delete body", StatusCode::kInvalidArgument,
      [&](JsonScanner& scanner, const std::string& key) {
        bool ok = true;
        if (key == "id") {
          size_t id = 0;
          ok = ParseSizeT(scanner, &id) &&
               id <= std::numeric_limits<RecordId>::max();
          body.id = static_cast<RecordId>(id);
          saw_id = true;
        } else {
          ok = scanner.SkipValue();
        }
        return ok ? Status::OK() : MalformedValue(key);
      }));
  if (!saw_id) {
    return Status::InvalidArgument("delete body is missing \"id\"");
  }
  return body;
}

Result<CompactBody> ParseCompactBody(std::string_view json) {
  CompactBody body;
  // Empty body -> defaults (merge all promoted shards).
  if (JsonScanner(json).AtEnd()) return body;
  GBKMV_RETURN_IF_ERROR(ParseObject(
      json, "compact body", StatusCode::kInvalidArgument,
      [&](JsonScanner& scanner, const std::string& key) {
        const bool ok = key == "all" ? scanner.ParseBool(&body.all)
                                     : scanner.SkipValue();
        return ok ? Status::OK() : MalformedValue(key);
      }));
  return body;
}

std::string SerializeQueryResponse(const QueryResponse& response,
                                   uint64_t epoch, bool want_scores,
                                   bool want_stats) {
  std::string out;
  out.reserve(32 + response.hits.size() * (want_scores ? 32 : 12));
  out += "{\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"hits\":[";
  bool first = true;
  for (const QueryHit& hit : response.hits) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":";
    out += std::to_string(hit.id);
    if (want_scores) {
      out += ",\"score\":";
      AppendScore(hit.score, &out);
    }
    out += '}';
  }
  out += ']';
  if (want_stats) {
    const QueryStats& s = response.stats;
    out += ",\"stats\":{\"candidates_generated\":";
    out += std::to_string(s.candidates_generated);
    out += ",\"candidates_refined\":";
    out += std::to_string(s.candidates_refined);
    out += ",\"postings_scanned\":";
    out += std::to_string(s.postings_scanned);
    out += ",\"heap_evictions\":";
    out += std::to_string(s.heap_evictions);
    out += ",\"shards_queried\":";
    out += std::to_string(s.shards_queried);
    out += ",\"cache_hits\":";
    out += std::to_string(s.cache_hits);
    out += '}';
  }
  out += '}';
  return out;
}

std::string SerializeIngestResult(uint64_t epoch, RecordId id) {
  std::string out = "{\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"id\":";
  out += std::to_string(id);
  out += '}';
  return out;
}

std::string SerializeDeleteResult(uint64_t epoch, RecordId id,
                                  bool deleted) {
  std::string out = "{\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"id\":";
  out += std::to_string(id);
  out += ",\"deleted\":";
  out += deleted ? "true" : "false";
  out += '}';
  return out;
}

std::string SerializePromoteResult(uint64_t epoch, bool promoted) {
  std::string out = "{\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"promoted\":";
  out += promoted ? "true" : "false";
  out += '}';
  return out;
}

std::string SerializeCompactResult(uint64_t epoch, size_t shards_merged,
                                   size_t tombstones_purged, bool noop) {
  std::string out = "{\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"shards_merged\":";
  out += std::to_string(shards_merged);
  out += ",\"tombstones_purged\":";
  out += std::to_string(tombstones_purged);
  out += ",\"noop\":";
  out += noop ? "true" : "false";
  out += '}';
  return out;
}

std::string SerializeError(std::string_view message) {
  std::string out = "{\"error\":\"";
  AppendEscaped(message, &out);
  out += "\"}";
  return out;
}

Result<WireQueryResult> ParseQueryResult(std::string_view json) {
  WireQueryResult result;
  const auto malformed = [] {
    return Status::Corruption("malformed query result");
  };
  GBKMV_RETURN_IF_ERROR(ParseObject(
      json, "query result", StatusCode::kCorruption,
      [&](JsonScanner& scanner, const std::string& key) -> Status {
        if (key == "epoch") {
          size_t epoch = 0;
          if (!ParseSizeT(scanner, &epoch)) return malformed();
          result.epoch = epoch;
          return Status::OK();
        }
        if (key != "hits") {
          return scanner.SkipValue() ? Status::OK() : malformed();
        }
        Status hit_status;
        switch (scanner.Array([&] {
          hit_status = ParseHit(scanner, &result.hits.emplace_back());
          return hit_status.ok();
        })) {
          case Walk::kOk:
            return Status::OK();
          case Walk::kWrongType:
            return malformed();
          case Walk::kMalformed:
            return Status::Corruption("bad hits");
          case Walk::kBadValue:
            break;
        }
        return hit_status;
      }));
  return result;
}

}  // namespace server
}  // namespace gbkmv
