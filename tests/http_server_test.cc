// The serving front end, bottom-up: HttpParser over adversarial and
// fragmented byte streams, wire-body parse/serialize round-trips
// (including bit-exact float scores), then socket end-to-end against a
// real Server on an ephemeral port — served query responses bit-identical
// to direct Serve() calls, admission control answering 429 + Retry-After,
// reload bumping the epoch under a live connection, and graceful
// Shutdown() leaving nothing listening.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/containment.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "index/query.h"
#include "serve/sharded_service.h"
#include "server/http.h"
#include "server/server.h"
#include "server/wire.h"

namespace gbkmv {
namespace server {
namespace {

using serve::BuildShardedService;
using serve::ShardedContainmentService;

// --- HttpParser ------------------------------------------------------------

TEST(HttpParserTest, ParsesRequestFedByteByByte) {
  const std::string raw =
      "POST /v1/query HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello";
  HttpParser parser;
  HttpRequest request;
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    parser.Feed(std::string_view(&raw[i], 1));
    ASSERT_EQ(HttpParser::Outcome::kNeedMore, parser.Next(&request))
        << "byte " << i;
  }
  parser.Feed(std::string_view(&raw[raw.size() - 1], 1));
  ASSERT_EQ(HttpParser::Outcome::kRequest, parser.Next(&request));
  EXPECT_EQ("POST", request.method);
  EXPECT_EQ("/v1/query", request.target);
  EXPECT_EQ("HTTP/1.1", request.version);
  EXPECT_EQ("hello", request.body);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(nullptr, request.FindHeader("content-type"));
  EXPECT_EQ("application/json", *request.FindHeader("content-type"));
  EXPECT_EQ(HttpParser::Outcome::kNeedMore, parser.Next(&request));
  EXPECT_EQ(0u, parser.buffered_bytes());
}

TEST(HttpParserTest, YieldsPipelinedRequestsInOrder) {
  HttpParser parser;
  parser.Feed(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
      "GET /metricsz HTTP/1.1\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(HttpParser::Outcome::kRequest, parser.Next(&request));
  EXPECT_EQ("/healthz", request.target);
  ASSERT_EQ(HttpParser::Outcome::kRequest, parser.Next(&request));
  EXPECT_EQ("/v1/query", request.target);
  EXPECT_EQ("ok", request.body);
  ASSERT_EQ(HttpParser::Outcome::kRequest, parser.Next(&request));
  EXPECT_EQ("/metricsz", request.target);
  EXPECT_EQ(HttpParser::Outcome::kNeedMore, parser.Next(&request));
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  HttpParser parser;
  parser.Feed("NOT A REQUEST LINE AT ALL\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(HttpParser::Outcome::kError, parser.Next(&request));
  EXPECT_EQ(400, parser.error_http_status());
}

TEST(HttpParserTest, RejectsChunkedTransferEncoding) {
  HttpParser parser;
  parser.Feed(
      "POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(HttpParser::Outcome::kError, parser.Next(&request));
  EXPECT_EQ(501, parser.error_http_status());
}

TEST(HttpParserTest, RejectsBodyBeyondLimit) {
  HttpLimits limits;
  limits.max_body_bytes = 10;
  HttpParser parser(limits);
  parser.Feed("POST /v1/query HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(HttpParser::Outcome::kError, parser.Next(&request));
  EXPECT_EQ(413, parser.error_http_status());
}

TEST(HttpParserTest, RejectsNonNumericContentLength) {
  HttpParser parser;
  parser.Feed("POST /v1/query HTTP/1.1\r\nContent-Length: lots\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(HttpParser::Outcome::kError, parser.Next(&request));
  EXPECT_EQ(400, parser.error_http_status());
}

TEST(HttpParserTest, RejectsOversizedHead) {
  HttpLimits limits;
  limits.max_head_bytes = 64;
  HttpParser parser(limits);
  std::string head = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  head.append(100, 'x');
  parser.Feed(head);
  HttpRequest request;
  EXPECT_EQ(HttpParser::Outcome::kError, parser.Next(&request));
  EXPECT_EQ(431, parser.error_http_status());
}

TEST(HttpParserTest, KeepAliveFollowsVersionAndConnectionHeader) {
  struct Case {
    const char* raw;
    bool keep_alive;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.raw);
    HttpParser parser;
    parser.Feed(c.raw);
    HttpRequest request;
    ASSERT_EQ(HttpParser::Outcome::kRequest, parser.Next(&request));
    EXPECT_EQ(c.keep_alive, request.keep_alive);
  }
}

// --- wire bodies -----------------------------------------------------------

TEST(WireTest, ParsesFullQueryBody) {
  Result<QueryBody> body = ParseQueryBody(
      "{\"elements\": [42, 7, 7, 1], \"threshold\": 0.6, \"top_k\": 5, "
      "\"scores\": false, \"stats\": true, \"future_knob\": 3}");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(MakeRecord({1, 7, 42}), body->elements);  // sorted, deduped
  EXPECT_TRUE(body->has_threshold);
  EXPECT_DOUBLE_EQ(0.6, body->threshold);
  EXPECT_EQ(5u, body->top_k);
  EXPECT_FALSE(body->want_scores);
  EXPECT_TRUE(body->want_stats);
}

TEST(WireTest, QueryBodyDefaultsAndErrors) {
  Result<QueryBody> minimal = ParseQueryBody("{\"elements\":[3]}");
  ASSERT_TRUE(minimal.ok());
  EXPECT_FALSE(minimal->has_threshold);
  EXPECT_EQ(0u, minimal->top_k);
  EXPECT_TRUE(minimal->want_scores);
  EXPECT_FALSE(minimal->want_stats);

  EXPECT_FALSE(ParseQueryBody("").ok());
  EXPECT_FALSE(ParseQueryBody("{}").ok());                   // no elements
  EXPECT_FALSE(ParseQueryBody("{\"elements\":[]}").ok());    // empty
  EXPECT_FALSE(ParseQueryBody("{\"elements\":[1],\"threshold\":1.5}").ok());
  EXPECT_FALSE(ParseQueryBody("{\"elements\":[1]} trailing").ok());
  EXPECT_FALSE(ParseQueryBody("[1, 2]").ok());               // not an object
}

TEST(WireTest, QueryResponseScoresRoundTripBitExactly) {
  QueryResponse response;
  response.hits.push_back({3, 0.1f});
  response.hits.push_back({7, 1.0f / 3.0f});
  response.hits.push_back({11, 0.9999999f});
  response.hits.push_back({0, 1.0f});
  const std::string json = SerializeQueryResponse(
      response, /*epoch=*/42, /*want_scores=*/true, /*want_stats=*/false);
  Result<WireQueryResult> parsed = ParseQueryResult(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(42u, parsed->epoch);
  ASSERT_EQ(response.hits.size(), parsed->hits.size());
  for (size_t i = 0; i < response.hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].id, parsed->hits[i].id);
    EXPECT_EQ(response.hits[i].score, parsed->hits[i].score);
  }
}

TEST(WireTest, ReloadBodyAndErrorSerialization) {
  Result<ReloadBody> reload = ParseReloadBody("{\"dir\": \"/tmp/x\"}");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ("/tmp/x", reload->dir);
  EXPECT_FALSE(ParseReloadBody("{}").ok());

  EXPECT_EQ("{\"error\":\"bad \\\"quote\\\"\"}",
            SerializeError("bad \"quote\""));
}

TEST(WireTest, MutationBodiesParseAndValidate) {
  Result<IngestBody> ingest = ParseIngestBody("{\"elements\":[7, 3, 3, 1]}");
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  EXPECT_EQ(MakeRecord({1, 3, 7}), ingest->elements);  // normalised
  EXPECT_FALSE(ParseIngestBody("{}").ok());
  EXPECT_FALSE(ParseIngestBody("{\"elements\":[]}").ok());

  Result<DeleteBody> del = ParseDeleteBody("{\"id\": 17}");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(17u, del->id);
  EXPECT_FALSE(ParseDeleteBody("{}").ok());
  EXPECT_FALSE(ParseDeleteBody("{\"id\": -1}").ok());

  // An empty compact body means the default: merge everything promoted.
  Result<CompactBody> compact = ParseCompactBody("");
  ASSERT_TRUE(compact.ok());
  EXPECT_TRUE(compact->all);
  compact = ParseCompactBody("{\"all\": false}");
  ASSERT_TRUE(compact.ok());
  EXPECT_FALSE(compact->all);
  EXPECT_FALSE(ParseCompactBody("nope").ok());
}

// Every request-body parser and ParseQueryResult against the same error
// cases, pinning the exact status code and message each one answers.
template <auto Parse>
Status StatusOf(std::string_view json) {
  return Parse(json).status();
}

// `levels` nested arrays: the innermost sits at depth levels - 1.
std::string NestedArrays(int levels) {
  return std::string(levels, '[') + std::string(levels, ']');
}

TEST(WireTest, ObjectErrorsTable) {
  constexpr StatusCode kOk = StatusCode::kOk;
  constexpr StatusCode kBad = StatusCode::kInvalidArgument;
  constexpr StatusCode kCorrupt = StatusCode::kCorruption;
  const auto query = StatusOf<ParseQueryBody>;
  const auto reload = StatusOf<ParseReloadBody>;
  const auto ingest = StatusOf<ParseIngestBody>;
  const auto del = StatusOf<ParseDeleteBody>;
  const auto compact = StatusOf<ParseCompactBody>;
  const auto result = StatusOf<ParseQueryResult>;
  const std::string ok_depth = "{\"deep\":" + NestedArrays(17);
  const std::string too_deep = "{\"deep\":" + NestedArrays(18);
  const struct Case {
    const char* what;
    Status (*parse)(std::string_view);
    std::string json;
    StatusCode code;
    std::string message;
  } cases[] = {
      // Not an object.
      {"query", query, "[1]", kBad, "query body must be a JSON object"},
      {"reload", reload, "[1]", kBad, "reload body must be a JSON object"},
      {"ingest", ingest, "[1]", kBad, "ingest body must be a JSON object"},
      {"delete", del, "\"x\"", kBad, "delete body must be a JSON object"},
      {"compact", compact, "[1]", kBad, "compact body must be a JSON object"},
      {"result", result, "[1]", kCorrupt, "query result must be a JSON object"},
      // Malformed key.
      {"query", query, "{elements:[1]}", kBad, "malformed query body"},
      {"reload", reload, "{\"dir\" \"x\"}", kBad, "malformed reload body"},
      {"ingest", ingest, "{", kBad, "malformed ingest body"},
      {"delete", del, "{7:1}", kBad, "malformed delete body"},
      {"compact", compact, "{all:true}", kBad, "malformed compact body"},
      {"result", result, "{epoch:1}", kCorrupt, "malformed query result"},
      // Bad value.
      {"query", query, "{\"elements\": oops}", kBad,
       "malformed value for \"elements\""},
      {"query", query, "{\"elements\":[1],\"top_k\":-2}", kBad,
       "malformed value for \"top_k\""},
      {"query", query, "{\"elements\":[1],\"threshold\":1.5}", kBad,
       "threshold must be in [0, 1]"},
      {"query", query, "{\"elements\":[]}", kBad,
       "\"elements\" must be non-empty"},
      {"reload", reload, "{\"dir\":5}", kBad, "malformed value for \"dir\""},
      {"ingest", ingest, "{\"elements\":[-1]}", kBad,
       "malformed value for \"elements\""},
      {"ingest", ingest, "{\"elements\":[]}", kBad,
       "\"elements\" must be non-empty"},
      {"delete", del, "{\"id\":\"x\"}", kBad, "malformed value for \"id\""},
      {"delete", del, "{\"id\":-1}", kBad, "malformed value for \"id\""},
      {"compact", compact, "{\"all\":1}", kBad, "malformed value for \"all\""},
      {"result", result, "{\"epoch\":\"x\"}", kCorrupt,
       "malformed query result"},
      {"result", result, "{\"hits\":5}", kCorrupt, "malformed query result"},
      {"result", result, "{\"hits\":[5]}", kCorrupt, "bad hit"},
      {"result", result, "{\"hits\":[{id:1}]}", kCorrupt, "bad hit"},
      {"result", result, "{\"hits\":[{}]}", kCorrupt, "bad hit"},
      {"result", result, "{\"hits\":[{\"id\":\"x\"}]}", kCorrupt,
       "bad hit value"},
      {"result", result, "{\"hits\":[{\"id\":1 \"score\":0.5}]}", kCorrupt,
       "bad hit"},
      {"result", result, "{\"hits\":[{\"id\":1} {\"id\":2}]}", kCorrupt,
       "bad hits"},
      // Missing comma.
      {"query", query, "{\"elements\":[1] \"top_k\":3}", kBad,
       "malformed query body"},
      {"reload", reload, "{\"dir\":\"x\" \"y\":1}", kBad,
       "malformed reload body"},
      {"ingest", ingest, "{\"elements\":[1] \"y\":1}", kBad,
       "malformed ingest body"},
      {"delete", del, "{\"id\":1 \"y\":1}", kBad, "malformed delete body"},
      {"compact", compact, "{\"all\":true \"y\":1}", kBad,
       "malformed compact body"},
      {"result", result, "{\"epoch\":1 \"hits\":[]}", kCorrupt,
       "malformed query result"},
      // Trailing bytes.
      {"query", query, "{\"elements\":[1]} x", kBad,
       "trailing bytes after query body"},
      {"reload", reload, "{\"dir\":\"x\"}}", kBad,
       "trailing bytes after reload body"},
      {"ingest", ingest, "{\"elements\":[1]}{}", kBad,
       "trailing bytes after ingest body"},
      {"delete", del, "{\"id\":1} 2", kBad, "trailing bytes after delete body"},
      {"compact", compact, "{} x", kBad, "trailing bytes after compact body"},
      {"result", result, "{\"epoch\":1,\"hits\":[]} x", kCorrupt,
       "trailing bytes after query result"},
      // Unknown keys are skipped, whatever their value.
      {"query", query,
       "{\"zz\":{\"a\":[1,{\"b\":null}],\"c\":\"\\\"\"},\"elements\":[1]}",
       kOk, ""},
      {"reload", reload, "{\"zz\":[true,false],\"dir\":\"x\"}", kOk, ""},
      {"ingest", ingest, "{\"elements\":[2],\"zz\":{}}", kOk, ""},
      {"delete", del, "{\"zz\":-1.5e3,\"id\":4}", kOk, ""},
      {"compact", compact, "{\"zz\":[],\"all\":false}", kOk, ""},
      {"result", result, "{\"zz\":{\"k\":[]},\"epoch\":3,\"hits\":[]}", kOk,
       ""},
      // Skipped values nest at most 16 deep.
      {"query", query, ok_depth + ",\"elements\":[1]}", kOk, ""},
      {"query", query, too_deep + ",\"elements\":[1]}", kBad,
       "malformed value for \"deep\""},
      {"reload", reload, too_deep + ",\"dir\":\"x\"}", kBad,
       "malformed value for \"deep\""},
      {"ingest", ingest, too_deep + ",\"elements\":[1]}", kBad,
       "malformed value for \"deep\""},
      {"delete", del, too_deep + ",\"id\":1}", kBad,
       "malformed value for \"deep\""},
      {"compact", compact, too_deep + "}", kBad,
       "malformed value for \"deep\""},
      {"result", result, ok_depth + "}", kOk, ""},
      {"result", result, too_deep + "}", kCorrupt, "malformed query result"},
      // Missing required key (compact and the result have none).
      {"query", query, "{\"top_k\":3}", kBad,
       "query body is missing \"elements\""},
      {"reload", reload, "{}", kBad, "reload body is missing \"dir\""},
      {"reload", reload, "{\"dir\":\"\"}", kBad,
       "reload body is missing \"dir\""},
      {"ingest", ingest, "{}", kBad, "ingest body is missing \"elements\""},
      {"delete", del, "{}", kBad, "delete body is missing \"id\""},
      {"compact", compact, "{}", kOk, ""},
      {"compact", compact, " ", kOk, ""},
      {"result", result, "{}", kOk, ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.what) + ": " + c.json);
    const Status status = c.parse(c.json);
    EXPECT_EQ(c.code, status.code()) << status.ToString();
    EXPECT_EQ(c.message, status.message());
  }
}

TEST(WireTest, MutationResultSerialization) {
  EXPECT_EQ("{\"epoch\":3,\"id\":412}", SerializeIngestResult(3, 412));
  EXPECT_EQ("{\"epoch\":3,\"id\":17,\"deleted\":true}",
            SerializeDeleteResult(3, 17, true));
  EXPECT_EQ("{\"epoch\":3,\"promoted\":false}",
            SerializePromoteResult(3, false));
  EXPECT_EQ(
      "{\"epoch\":3,\"shards_merged\":4,\"tombstones_purged\":9,"
      "\"noop\":false}",
      SerializeCompactResult(3, 4, 9, false));
}

// --- socket end-to-end -----------------------------------------------------

class ServerEndToEndTest : public ::testing::Test {
 protected:
  static Dataset MakeTestDataset(uint64_t seed) {
    SyntheticConfig c;
    c.num_records = 250;
    c.universe_size = 2000;
    c.min_record_size = 8;
    c.max_record_size = 80;
    c.alpha_element_freq = 1.1;
    c.alpha_record_size = 2.0;
    c.seed = seed;
    return std::move(GenerateSynthetic(c).value());
  }

  static std::shared_ptr<ShardedContainmentService> MakeService(
      const Dataset& dataset) {
    SearcherConfig config;
    config.method = SearchMethod::kFreqSet;
    config.sharded.num_shards = 2;
    Result<std::unique_ptr<ShardedContainmentService>> service =
        BuildShardedService(dataset, config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::shared_ptr<ShardedContainmentService>(std::move(*service));
  }

  static std::string QueryJson(const Record& record, double threshold,
                               size_t top_k) {
    std::string json = "{\"elements\":[";
    for (size_t i = 0; i < record.size(); ++i) {
      if (i > 0) json += ",";
      json += std::to_string(record[i]);
    }
    json += "],\"threshold\":" + std::to_string(threshold);
    json += ",\"top_k\":" + std::to_string(top_k) + "}";
    return json;
  }
};

TEST_F(ServerEndToEndTest, ServesHealthQueriesMetricsAndErrors) {
  const Dataset dataset = MakeTestDataset(20260805);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);

  ServerOptions options;
  options.port = 0;
  options.num_reactors = 2;
  Result<std::unique_ptr<Server>> server = Server::Start(service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->port(), 0);

  HttpBlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", (*server)->port()).ok());

  // Liveness.
  Result<HttpClientResponse> health = client.RoundTrip("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(200, health->status);
  EXPECT_EQ("ok\n", health->body);

  // Served queries are bit-identical to direct Serve() calls — same ids,
  // same float scores after the JSON round-trip.
  constexpr double kThreshold = 0.4;
  constexpr size_t kTopK = 10;
  for (RecordId id : SampleQueries(dataset, 8, 5)) {
    const Record& query = dataset.record(id);
    QueryRequest request(query, kThreshold);
    request.top_k = kTopK;
    const QueryResponse direct = service->Serve(request);

    Result<HttpClientResponse> http = client.RoundTrip(
        "POST", "/v1/query", QueryJson(query, kThreshold, kTopK));
    ASSERT_TRUE(http.ok()) << http.status().ToString();
    ASSERT_EQ(200, http->status) << http->body;
    Result<WireQueryResult> wire = ParseQueryResult(http->body);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(1u, wire->epoch);
    ASSERT_EQ(direct.hits.size(), wire->hits.size());
    for (size_t i = 0; i < direct.hits.size(); ++i) {
      EXPECT_EQ(direct.hits[i].id, wire->hits[i].id);
      EXPECT_EQ(direct.hits[i].score, wire->hits[i].score);
    }
  }

  // Errors: malformed JSON, unknown path, wrong method.
  Result<HttpClientResponse> bad =
      client.RoundTrip("POST", "/v1/query", "{\"elements\": oops");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(400, bad->status);
  EXPECT_NE(std::string::npos, bad->body.find("\"error\""));

  Result<HttpClientResponse> missing = client.RoundTrip("GET", "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(404, missing->status);

  Result<HttpClientResponse> wrong = client.RoundTrip("GET", "/v1/query");
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(405, wrong->status);

  // Metrics exposition includes the server families.
  Result<HttpClientResponse> metrics = client.RoundTrip("GET", "/metricsz");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(200, metrics->status);
  EXPECT_NE(std::string::npos,
            metrics->body.find("gbkmv_server_requests_total"));
  EXPECT_NE(std::string::npos,
            metrics->body.find("gbkmv_server_batch_size"));

  // All of the above reused one keep-alive connection.
  EXPECT_TRUE(client.connected());

  // Pipelining: two requests written back-to-back answer in order.
  ASSERT_TRUE(client
                  .WriteRaw(
                      "GET /healthz HTTP/1.1\r\n\r\n"
                      "GET /nope HTTP/1.1\r\n\r\n")
                  .ok());
  Result<HttpClientResponse> first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(200, first->status);
  EXPECT_EQ("ok\n", first->body);
  Result<HttpClientResponse> second = client.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(404, second->status);

  const Server::Stats stats = (*server)->stats();
  EXPECT_GE(stats.requests, 14u);
  EXPECT_EQ(8u, stats.queries_served);
  EXPECT_GE(stats.http_errors, 3u);
  EXPECT_EQ(0u, stats.shed);

  (*server)->Shutdown();
  // Nothing is listening afterwards.
  HttpBlockingClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", (*server)->port()).ok());
}

TEST_F(ServerEndToEndTest, ShedsWithRetryAfterWhenAdmissionBoundIsZero) {
  const Dataset dataset = MakeTestDataset(20260806);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);

  ServerOptions options;
  options.port = 0;
  options.num_reactors = 1;
  options.max_inflight = 0;  // admission control rejects every query
  options.retry_after_seconds = 7;
  Result<std::unique_ptr<Server>> server = Server::Start(service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  HttpBlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", (*server)->port()).ok());

  Result<HttpClientResponse> shed = client.RoundTrip(
      "POST", "/v1/query", QueryJson(dataset.record(0), 0.5, 4));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(429, shed->status);
  ASSERT_NE(nullptr, shed->FindHeader("retry-after"));
  EXPECT_EQ("7", *shed->FindHeader("retry-after"));

  // Health stays green while queries shed.
  Result<HttpClientResponse> health = client.RoundTrip("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(200, health->status);

  EXPECT_EQ(1u, (*server)->stats().shed);
  (*server)->Shutdown();
}

TEST_F(ServerEndToEndTest, ReloadSwapsEpochUnderLiveConnection) {
  const Dataset dataset = MakeTestDataset(20260807);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);
  const std::string dir = ::testing::TempDir() + "server_reload_manifest";
  ASSERT_TRUE(service->Save(dir).ok());

  ServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<Server>> server = Server::Start(service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(1u, (*server)->epoch());

  HttpBlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", (*server)->port()).ok());

  Result<HttpClientResponse> reload = client.RoundTrip(
      "POST", "/admin/reload", "{\"dir\": \"" + dir + "\"}");
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  ASSERT_EQ(200, reload->status) << reload->body;
  EXPECT_NE(std::string::npos, reload->body.find("\"epoch\":2"));
  EXPECT_EQ(2u, (*server)->epoch());

  // The same connection's next query is served by the new manifest.
  Result<HttpClientResponse> http = client.RoundTrip(
      "POST", "/v1/query", QueryJson(dataset.record(3), 0.4, 5));
  ASSERT_TRUE(http.ok());
  ASSERT_EQ(200, http->status) << http->body;
  Result<WireQueryResult> wire = ParseQueryResult(http->body);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(2u, wire->epoch);

  // A bad directory fails with 500 and leaves the old epoch serving.
  Result<HttpClientResponse> bad = client.RoundTrip(
      "POST", "/admin/reload", "{\"dir\": \"/nonexistent/manifest\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(500, bad->status);
  EXPECT_EQ(2u, (*server)->epoch());

  EXPECT_EQ(1u, (*server)->stats().reloads);
  (*server)->Shutdown();
}

// The full mutation lifecycle over one keep-alive connection: ingest a
// record and query it back, tombstone it and watch it disappear without a
// reload, promote + compact through the admin endpoints, with the error
// taxonomy mapped onto 400/404/405.
TEST_F(ServerEndToEndTest, MutationEndpointsDriveShardLifecycle) {
  const Dataset dataset = MakeTestDataset(20260808);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);

  ServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<Server>> server = Server::Start(service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  HttpBlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", (*server)->port()).ok());

  // Ingest: the new record is assigned the next global id...
  const Record probe = MakeRecord({9001, 9002, 9003, 9004});
  Result<HttpClientResponse> ingest = client.RoundTrip(
      "POST", "/v1/ingest", "{\"elements\":[9001,9002,9003,9004]}");
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  ASSERT_EQ(200, ingest->status) << ingest->body;
  const std::string want_id =
      "\"id\":" + std::to_string(dataset.size());
  EXPECT_NE(std::string::npos, ingest->body.find(want_id));

  // ...and the very next query on the same connection serves it.
  auto query_hits_probe = [&]() -> bool {
    Result<HttpClientResponse> http =
        client.RoundTrip("POST", "/v1/query", QueryJson(probe, 0.9, 0));
    EXPECT_TRUE(http.ok() && http->status == 200);
    Result<WireQueryResult> wire = ParseQueryResult(http->body);
    EXPECT_TRUE(wire.ok());
    for (const QueryHit& hit : wire->hits) {
      if (hit.id == dataset.size()) return true;
    }
    return false;
  };
  EXPECT_TRUE(query_hits_probe());

  // Promote it into an immutable shard through the admin endpoint.
  Result<HttpClientResponse> promote =
      client.RoundTrip("POST", "/admin/promote");
  ASSERT_TRUE(promote.ok()) << promote.status().ToString();
  ASSERT_EQ(200, promote->status) << promote->body;
  EXPECT_NE(std::string::npos, promote->body.find("\"promoted\":true"));
  EXPECT_TRUE(query_hits_probe());

  // Delete: the record stops appearing immediately, no reload involved.
  Result<HttpClientResponse> del = client.RoundTrip(
      "POST", "/v1/delete",
      "{\"id\":" + std::to_string(dataset.size()) + "}");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ASSERT_EQ(200, del->status) << del->body;
  EXPECT_NE(std::string::npos, del->body.find("\"deleted\":true"));
  EXPECT_FALSE(query_hits_probe());

  // Compact purges the tombstone (the single promoted shard is rewritten);
  // the record is gone for good, so a re-delete is now 404.
  Result<HttpClientResponse> compact =
      client.RoundTrip("POST", "/admin/compact", "{\"all\":true}");
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  ASSERT_EQ(200, compact->status) << compact->body;
  EXPECT_NE(std::string::npos,
            compact->body.find("\"tombstones_purged\":1"));
  EXPECT_FALSE(query_hits_probe());

  // Error taxonomy on the wire: NotFound -> 404, malformed body -> 400,
  // wrong method -> 405.
  Result<HttpClientResponse> missing = client.RoundTrip(
      "POST", "/v1/delete",
      "{\"id\":" + std::to_string(dataset.size()) + "}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(404, missing->status);
  EXPECT_NE(std::string::npos, missing->body.find("\"error\""));

  Result<HttpClientResponse> bad =
      client.RoundTrip("POST", "/v1/ingest", "{\"elements\":[]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(400, bad->status);

  Result<HttpClientResponse> wrong = client.RoundTrip("GET", "/v1/ingest");
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(405, wrong->status);

  Result<HttpClientResponse> wrong_admin =
      client.RoundTrip("GET", "/admin/compact");
  ASSERT_TRUE(wrong_admin.ok());
  EXPECT_EQ(405, wrong_admin->status);

  (*server)->Shutdown();
}

// Every route answers a wrong method with 405 naming the right one, an
// unknown target with 404, and every body-taking route a malformed body
// with 400 — each counted once as an HTTP error, on one live connection.
TEST_F(ServerEndToEndTest, RoutesAnswerWrongMethodUnknownTargetAndBadBody) {
  const Dataset dataset = MakeTestDataset(20260809);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);

  ServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<Server>> server = Server::Start(service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  HttpBlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", (*server)->port()).ok());
  uint64_t errors = 0;
  auto expect = [&](std::string_view method, std::string_view target,
                    std::string_view body, int status,
                    std::string_view want) {
    SCOPED_TRACE(std::string(method) + " " + std::string(target) + " " +
                 std::string(body));
    Result<HttpClientResponse> response =
        client.RoundTrip(method, target, body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(status, response->status);
    EXPECT_EQ(want, response->body);
    ++errors;
  };

  const struct Route {
    const char* target;
    const char* method;
  } routes[] = {
      {"/healthz", "GET"},        {"/metricsz", "GET"},
      {"/v1/query", "POST"},      {"/v1/ingest", "POST"},
      {"/v1/delete", "POST"},     {"/admin/promote", "POST"},
      {"/admin/compact", "POST"}, {"/admin/reload", "POST"},
  };
  for (const Route& route : routes) {
    const bool get = std::string_view(route.method) == "GET";
    const std::string want =
        get ? "{\"error\":\"use GET\"}" : "{\"error\":\"use POST\"}";
    expect(get ? "POST" : "GET", route.target, "", 405, want);
    expect("PUT", route.target, "{}", 405, want);
  }

  for (const char* target : {"/nope", "/v1/query/", "/admin", "/"}) {
    expect("GET", target, "", 404, "{\"error\":\"unknown endpoint\"}");
    expect("POST", target, "{}", 404, "{\"error\":\"unknown endpoint\"}");
  }

  const struct BodyRoute {
    const char* target;
    const char* error;
  } body_routes[] = {
      {"/v1/query", "malformed query body"},
      {"/v1/ingest", "malformed ingest body"},
      {"/v1/delete", "malformed delete body"},
      {"/admin/compact", "malformed compact body"},
      {"/admin/reload", "malformed reload body"},
  };
  for (const BodyRoute& route : body_routes) {
    expect("POST", route.target, "{", 400,
           "{\"error\":\"" + std::string(route.error) + "\"}");
  }

  EXPECT_TRUE(client.connected());
  EXPECT_EQ(errors, (*server)->stats().http_errors);
  (*server)->Shutdown();
}

// A request the HTTP parser rejects is answered once, with the parser's
// status, and the server then closes the connection (which the answer can
// do at once, the socket write having drained).
TEST_F(ServerEndToEndTest, UnparsableRequestAnswersAndCloses) {
  const Dataset dataset = MakeTestDataset(20260810);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);

  ServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<Server>> server = Server::Start(service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  HttpBlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", (*server)->port()).ok());
  ASSERT_TRUE(client.WriteRaw("NOT A REQUEST LINE AT ALL\r\n\r\n").ok());
  Result<HttpClientResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(400, response->status);
  EXPECT_NE(std::string::npos, response->body.find("\"error\""));
  EXPECT_FALSE(client.ReadResponse().ok());  // closed by the server

  // The server keeps serving other connections.
  HttpBlockingClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", (*server)->port()).ok());
  Result<HttpClientResponse> health = next.RoundTrip("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(200, health->status);

  EXPECT_EQ(1u, (*server)->stats().http_errors);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace server
}  // namespace gbkmv
