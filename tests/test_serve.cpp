#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/serialize.hpp"
#include "nn/model_zoo.hpp"
#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "test_temp.hpp"

namespace naas {
namespace {

using serve::EvalService;
using serve::Json;
using serve::ServeOptions;

std::string temp_store_path(const std::string& name) {
  return test::unique_temp_path("naas_serve_" + name + ".bin");
}

/// Tiny budget keeps searches fast; tests only need determinism.
ServeOptions tiny_options(const std::string& store_path = "") {
  ServeOptions opts;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.store_path = store_path;
  return opts;
}

std::string search_line(const char* net, int index, int id = 1) {
  Json req = Json::object();
  req.set("id", Json::integer(id));
  req.set("method", Json::string("search_mapping"));
  Json arch = Json::object();
  arch.set("preset", Json::string("nvdla256"));
  req.set("arch", std::move(arch));
  Json layer = Json::object();
  layer.set("network", Json::string(net));
  layer.set("index", Json::integer(index));
  req.set("layer", std::move(layer));
  return req.dump();
}

Json parse_response(const std::string& line) {
  std::string error;
  Json j = Json::parse(line, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(j.is_object()) << line;
  return j;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ArchPresetAndExplicitRoundTrip) {
  arch::ArchConfig preset;
  std::string err;
  Json spec = Json::object();
  spec.set("preset", Json::string("eyeriss"));
  ASSERT_TRUE(serve::arch_from_json(spec, &preset, &err)) << err;
  EXPECT_EQ(preset.name, arch::eyeriss_arch().name);

  // to_json -> from_json reproduces the same configuration.
  arch::ArchConfig round;
  ASSERT_TRUE(serve::arch_from_json(serve::arch_to_json(preset), &round,
                                    &err))
      << err;
  EXPECT_EQ(round.num_array_dims, preset.num_array_dims);
  EXPECT_EQ(round.array_dims, preset.array_dims);
  EXPECT_EQ(round.parallel_dims, preset.parallel_dims);
  EXPECT_EQ(round.l1_bytes, preset.l1_bytes);
  EXPECT_EQ(round.l2_bytes, preset.l2_bytes);
}

TEST(ServeProtocol, ArchValidationRejectsBadSpecs) {
  arch::ArchConfig out;
  std::string err;
  Json unknown = Json::object();
  unknown.set("preset", Json::string("tpu9000"));
  EXPECT_FALSE(serve::arch_from_json(unknown, &out, &err));
  EXPECT_NE(err.find("tpu9000"), std::string::npos);

  // Duplicate parallel dims are structurally invalid.
  std::string parse_error;
  const Json dup = Json::parse(
      R"({"array_dims":[8,8],"parallel_dims":["K","K"]})", &parse_error);
  ASSERT_TRUE(parse_error.empty());
  EXPECT_FALSE(serve::arch_from_json(dup, &out, &err));

  const Json empty = Json::object();
  EXPECT_FALSE(serve::arch_from_json(empty, &out, &err));
}

TEST(ServeProtocol, LayerByNetworkAndExplicitRoundTrip) {
  std::string parse_error, err;
  const Json by_net = Json::parse(
      R"({"network":"squeezenet","index":2})", &parse_error);
  ASSERT_TRUE(parse_error.empty());
  nn::Workload layer;
  ASSERT_TRUE(serve::layer_from_json(by_net, &layer, &err)) << err;
  EXPECT_EQ(layer.name, nn::make_squeezenet().layers()[2].name);

  nn::Workload round;
  ASSERT_TRUE(
      serve::layer_from_json(serve::layer_to_json(layer), &round, &err))
      << err;
  EXPECT_TRUE(nn::LayerShapeEq{}(layer, round));

  const Json oob = Json::parse(
      R"({"network":"squeezenet","index":999})", &parse_error);
  EXPECT_FALSE(serve::layer_from_json(oob, &layer, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos);

  const Json bad_net = Json::parse(
      R"({"network":"nonexistent","index":0})", &parse_error);
  EXPECT_FALSE(serve::layer_from_json(bad_net, &layer, &err));
}

TEST(ServeProtocol, MappingRoundTripsThroughJson) {
  // A searched mapping survives to_json -> from_json with an identical
  // cost report (the JSON form is faithful, not lossy).
  const cost::CostModel model;
  const arch::ArchConfig arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_conv("t", 32, 64, 3, 1, 28);
  search::MappingSearchOptions opts;
  opts.population = 6;
  opts.iterations = 3;
  const auto searched = search::search_mapping(model, arch, layer, opts);

  std::string err;
  mapping::Mapping round;
  ASSERT_TRUE(serve::mapping_from_json(serve::mapping_to_json(searched.best),
                                       &round, &err))
      << err;
  const auto a = model.evaluate(arch, layer, searched.best);
  const auto b = model.evaluate(arch, layer, round);
  EXPECT_EQ(a.edp, b.edp);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
}

// ---------------------------------------------------------------- service

TEST(EvalServiceTest, AnswersSearchMappingQuery) {
  EvalService service(tiny_options());
  const Json response =
      parse_response(service.handle_line(search_line("cifarnet", 0)));
  EXPECT_TRUE(response.get("ok")->as_bool());
  EXPECT_EQ(response.get("id")->as_int(), 1);
  const Json* result = response.get("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->get("report"), nullptr);
  EXPECT_TRUE(result->get("report")->get("legal")->as_bool());
  EXPECT_GT(result->get("report")->get("edp")->as_double(), 0);
  ASSERT_NE(result->get("mapping"), nullptr);
  EXPECT_GT(result->get("evaluations")->as_int(), 0);
}

TEST(EvalServiceTest, EvaluateMappingEchoesSearchedMapping) {
  // Feed the mapping from a search_mapping response back through
  // evaluate_mapping: the reported EDP must match exactly.
  EvalService service(tiny_options());
  const Json search =
      parse_response(service.handle_line(search_line("cifarnet", 0)));
  const Json* result = search.get("result");
  ASSERT_NE(result, nullptr);

  Json req = Json::object();
  req.set("id", Json::integer(2));
  req.set("method", Json::string("evaluate_mapping"));
  Json arch = Json::object();
  arch.set("preset", Json::string("nvdla256"));
  req.set("arch", std::move(arch));
  Json layer = Json::object();
  layer.set("network", Json::string("cifarnet"));
  layer.set("index", Json::integer(0));
  req.set("layer", std::move(layer));
  // Round-trip the mapping through its serialized text.
  std::string error;
  req.set("mapping", Json::parse(result->get("mapping")->dump(), &error));
  ASSERT_TRUE(error.empty());

  const Json echoed = parse_response(service.handle_line(req.dump()));
  ASSERT_TRUE(echoed.get("ok")->as_bool()) << echoed.dump();
  EXPECT_EQ(echoed.get("result")->get("edp")->as_double(),
            result->get("report")->get("edp")->as_double());
}

TEST(EvalServiceTest, EvaluateNetworkMatchesDirectEvaluator) {
  EvalService service(tiny_options());
  Json req = Json::object();
  req.set("method", Json::string("evaluate_network"));
  Json arch = Json::object();
  arch.set("preset", Json::string("nvdla256"));
  req.set("arch", std::move(arch));
  req.set("network", Json::string("cifarnet"));
  const Json response = parse_response(service.handle_line(req.dump()));
  ASSERT_TRUE(response.get("ok")->as_bool()) << response.dump();

  const cost::CostModel model;
  search::ArchEvaluator evaluator(model, tiny_options().mapping);
  const cost::NetworkCost direct =
      evaluator.evaluate(arch::nvdla_256_arch(), nn::make_cifar_net());
  EXPECT_EQ(response.get("result")->get("edp")->as_double(), direct.edp);
  EXPECT_EQ(response.get("result")->get("layers")->size(),
            direct.per_layer.size());
}

TEST(EvalServiceTest, MalformedRequestsGetStructuredErrors) {
  EvalService service(tiny_options());
  const auto expect_error = [&](const std::string& line,
                                const std::string& code) {
    const Json response = parse_response(service.handle_line(line));
    EXPECT_FALSE(response.get("ok")->as_bool()) << line;
    ASSERT_NE(response.get("error"), nullptr);
    EXPECT_EQ(response.get("error")->get("code")->as_string(), code) << line;
  };
  expect_error("this is not json", serve::kErrParse);
  expect_error("{\"method\": 42}", serve::kErrBadRequest);
  expect_error("[1,2,3]", serve::kErrBadRequest);
  expect_error("{\"method\": \"transmogrify\"}", serve::kErrUnknownMethod);
  expect_error("{\"method\": \"search_mapping\"}", serve::kErrBadRequest);
  expect_error(
      R"({"method":"search_mapping","arch":{"preset":"nope"},)"
      R"("layer":{"network":"cifarnet","index":0}})",
      serve::kErrBadRequest);
  expect_error(
      R"({"method":"evaluate_network","arch":{"preset":"nvdla256"},)"
      R"("network":"nonexistent"})",
      serve::kErrBadRequest);
  expect_error(
      R"({"method":"evaluate_mapping","arch":{"preset":"nvdla256"},)"
      R"("layer":{"network":"cifarnet","index":0}})",
      serve::kErrBadRequest);
  EXPECT_EQ(service.stats().errors, 8);
  // The service keeps serving after errors.
  const Json ok = parse_response(service.handle_line(search_line(
      "cifarnet", 0)));
  EXPECT_TRUE(ok.get("ok")->as_bool());
}

TEST(EvalServiceTest, UnknownLayerKindReturnsStructuredBadRequest) {
  EvalService service(tiny_options());
  const Json response = parse_response(service.handle_line(
      R"({"id":9,"method":"search_mapping","arch":{"preset":"nvdla256"},)"
      R"("layer":{"kind":"pooling","out_h":8}})"));
  EXPECT_FALSE(response.get("ok")->as_bool());
  ASSERT_NE(response.get("error"), nullptr);
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            serve::kErrBadRequest);
  const std::string msg =
      response.get("error")->get("message")->as_string();
  EXPECT_NE(msg.find("pooling"), std::string::npos) << msg;
  for (const char* kind : {"conv", "dwconv", "fc", "matmul", "attention"})
    EXPECT_NE(msg.find(kind), std::string::npos) << msg;
}

TEST(EvalServiceTest, GemmKindsRejectNonUnitConvDims) {
  EvalService service(tiny_options());
  const Json response = parse_response(service.handle_line(
      R"({"id":10,"method":"search_mapping","arch":{"preset":"nvdla256"},)"
      R"("layer":{"kind":"attention","out_h":8,"in_channels":16,)"
      R"("out_channels":16,"kernel_h":3}})"));
  EXPECT_FALSE(response.get("ok")->as_bool());
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            serve::kErrBadRequest);
  EXPECT_NE(response.get("error")->get("message")->as_string().find(
                "attention"),
            std::string::npos);
}

TEST(EvalServiceTest, ErrorResponsesEchoRequestId) {
  EvalService service(tiny_options());
  const Json response = parse_response(
      service.handle_line(R"({"id":"q-7","method":"transmogrify"})"));
  EXPECT_EQ(response.get("id")->as_string(), "q-7");
}

TEST(EvalServiceTest, BatchedResponsesBitIdenticalToSequential) {
  // The same mixed session (valid queries, duplicates, an error in the
  // middle) submitted as one batch and one-at-a-time must produce
  // byte-identical response lines.
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i)
    lines.push_back(search_line("cifarnet", i, i + 1));
  lines.push_back("garbage{");
  lines.push_back(search_line("cifarnet", 1, 99));  // duplicate shape
  Json net_req = Json::object();
  net_req.set("id", Json::integer(100));
  net_req.set("method", Json::string("evaluate_network"));
  Json arch = Json::object();
  arch.set("preset", Json::string("nvdla256"));
  net_req.set("arch", std::move(arch));
  net_req.set("network", Json::string("cifarnet"));
  lines.push_back(net_req.dump());

  EvalService batched(tiny_options());
  const std::vector<std::string> batch_out = batched.handle_lines(lines);

  EvalService sequential(tiny_options());
  std::vector<std::string> seq_out;
  for (const std::string& line : lines)
    seq_out.push_back(sequential.handle_line(line));

  EXPECT_EQ(batch_out, seq_out);
  // The batch deduplicated: searches ran once per unique (arch, layer).
  EXPECT_EQ(batched.evaluator().mapping_searches(),
            sequential.evaluator().mapping_searches());
}

TEST(EvalServiceTest, WarmBootFromStoreAnswersWithZeroSearches) {
  const std::string store = temp_store_path("warm_boot");
  std::remove(store.c_str());
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i)
    lines.push_back(search_line("cifarnet", i, i + 1));

  std::vector<std::string> cold_out;
  {
    EvalService cold(tiny_options(store));
    cold_out = cold.handle_lines(lines);
    EXPECT_GT(cold.evaluator().mapping_searches(), 0);
  }  // destructor flushes

  EvalService warm(tiny_options(store));
  EXPECT_GT(warm.evaluator().store_entries_loaded(), 0u);
  const std::vector<std::string> warm_out = warm.handle_lines(lines);
  EXPECT_EQ(warm.evaluator().mapping_searches(), 0);
  EXPECT_EQ(warm_out, cold_out);
  std::remove(store.c_str());
}

TEST(EvalServiceTest, StoreRespectsReadonly) {
  const std::string store = temp_store_path("readonly");
  std::remove(store.c_str());
  ServeOptions opts = tiny_options(store);
  opts.store_readonly = true;
  {
    EvalService service(opts);
    service.handle_line(search_line("cifarnet", 0));
  }
  FILE* f = std::fopen(store.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "readonly service must not create the store";
  if (f) std::fclose(f);
}

TEST(EvalServiceTest, IncrementalRefreshSharesWorkAcrossInstances) {
  const std::string store = temp_store_path("incremental");
  std::remove(store.c_str());
  EvalService a(tiny_options(store));
  EvalService b(tiny_options(store));

  // A computes a result and appends it incrementally.
  const std::string a_response = a.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(a.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(a.stats().store_appends, 1);
  EXPECT_GT(a.stats().store_entries_appended, 0);

  // B refreshes, adopts A's append, and answers identically with zero
  // searches of its own.
  EXPECT_EQ(b.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(b.stats().store_reloads, 1);
  EXPECT_GT(b.stats().store_entries_reloaded, 0);
  const std::string b_response = b.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(b.evaluator().mapping_searches(), 0);
  EXPECT_EQ(b_response, a_response);

  // Now B computes something new; A adopts it the same way.
  b.handle_line(search_line("cifarnet", 1));
  EXPECT_EQ(b.refresh(), search::StoreStatus::kOk);
  // B's refresh appended only its new entry (A's entry was not rewritten).
  EXPECT_EQ(b.stats().store_entries_appended, 1);
  EXPECT_EQ(a.refresh(), search::StoreStatus::kOk);
  const long long a_searches_before = a.evaluator().mapping_searches();
  a.handle_line(search_line("cifarnet", 1));
  EXPECT_EQ(a.evaluator().mapping_searches(), a_searches_before);
  std::remove(store.c_str());
}

TEST(EvalServiceTest, RefreshIsANoOpWithoutChanges) {
  const std::string store = temp_store_path("noop_refresh");
  std::remove(store.c_str());
  EvalService service(tiny_options(store));
  service.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(service.refresh(), search::StoreStatus::kOk);
  const long long appends = service.stats().store_appends;
  const long long appended = service.stats().store_entries_appended;
  // Nothing new: no append, no reload, however often it runs.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(service.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_appends, appends);
  EXPECT_EQ(service.stats().store_reloads, 0);
  // An idle refresh skips the cache scan; a search after it is still
  // appended, exactly once.
  service.handle_line(search_line("cifarnet", 1, 2));
  EXPECT_EQ(service.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_entries_appended, appended + 1);
  EXPECT_EQ(service.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_entries_appended, appended + 1);
  // Entries adopted from a peer enter the cache with fresh sequence
  // numbers, so they are appended too.
  EvalService peer(tiny_options());
  peer.handle_line(search_line("squeezenet", 0, 3));
  ASSERT_EQ(service.adopt_entries(peer.evaluator().snapshot_since(0)), 1u);
  EXPECT_EQ(service.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_entries_appended, appended + 2);
  EXPECT_EQ(service.stats().store_reloads, 0);
  std::remove(store.c_str());
}

TEST(EvalServiceTest, OverflowingIntegerFieldsAreRejectedNotWrapped) {
  // 2^32 + 1 would wrap to out_channels == 1 under a silent narrowing;
  // the service must reject it instead of answering for a different
  // layer. Likewise 2^31 would wrap negative.
  EvalService service(tiny_options());
  for (const char* big : {"4294967297", "2147483648"}) {
    const std::string line =
        std::string(R"({"method":"search_mapping",)"
                    R"("arch":{"preset":"nvdla256"},)"
                    R"("layer":{"kind":"conv","out_channels":)") +
        big + R"(,"in_channels":32,"out_h":28,"out_w":28}})";
    const Json response = parse_response(service.handle_line(line));
    EXPECT_FALSE(response.get("ok")->as_bool()) << big;
    EXPECT_EQ(response.get("error")->get("code")->as_string(),
              serve::kErrBadRequest);
  }
  // Same guard on arch axis sizes and mapping tiles.
  arch::ArchConfig out;
  std::string parse_error, err;
  const Json huge_axis = Json::parse(
      R"({"array_dims":[4294967297,8],"parallel_dims":["K","C"]})",
      &parse_error);
  ASSERT_TRUE(parse_error.empty());
  EXPECT_FALSE(serve::arch_from_json(huge_axis, &out, &err));
}

TEST(EvalServiceTest, FailedAppendRetriesInsteadOfDroppingEntries) {
  // A store path whose directory does not exist makes every append fail.
  // The entries must stay flagged for flush (refresh keeps reporting the
  // failure) rather than being silently dropped after the first attempt.
  const std::string store =
      test::unique_temp_path("naas_no_such_dir") + "/store.bin";
  EvalService service(tiny_options(store));
  service.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(service.refresh(), search::StoreStatus::kIoError);
  EXPECT_EQ(service.refresh(), search::StoreStatus::kIoError);
  EXPECT_EQ(service.stats().store_appends, 0);
}

TEST(EvalServiceTest, DamagedStoreIsHealedByRewriteNotAppendedTo) {
  const std::string store = temp_store_path("heal");
  {
    FILE* f = std::fopen(store.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a result store", f);
    std::fclose(f);
  }
  {
    EvalService service(tiny_options(store));  // boots cold with a warning
    EXPECT_EQ(service.evaluator().store_entries_loaded(), 0u);
    service.handle_line(search_line("cifarnet", 0));
    EXPECT_EQ(service.refresh(), search::StoreStatus::kOk);
    EXPECT_EQ(service.stats().store_rewrites, 1);
    EXPECT_EQ(service.stats().store_appends, 0);
  }
  // The healed store is valid again and warm-starts the next service.
  EvalService warm(tiny_options(store));
  EXPECT_GT(warm.evaluator().store_entries_loaded(), 0u);
  const std::string response = warm.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(warm.evaluator().mapping_searches(), 0);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  std::remove(store.c_str());
}

TEST(EvalServiceTest, ReadonlyServiceAdoptsAnotherProcessesHeal) {
  const std::string store = temp_store_path("readonly_heal");
  {
    FILE* f = std::fopen(store.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage, not a store", f);
    std::fclose(f);
  }
  ServeOptions ro = tiny_options(store);
  ro.store_readonly = true;
  EvalService reader(ro);
  // The damaged store is a standing problem the reader cannot fix...
  EXPECT_EQ(reader.refresh(), search::StoreStatus::kCorrupt);
  EXPECT_EQ(reader.stats().store_rewrites, 0);

  // ...until a writer heals it.
  {
    EvalService writer(tiny_options(store));
    writer.handle_line(search_line("cifarnet", 0));
    EXPECT_EQ(writer.refresh(), search::StoreStatus::kOk);
    EXPECT_EQ(writer.stats().store_rewrites, 1);
  }
  EXPECT_EQ(reader.refresh(), search::StoreStatus::kOk);
  EXPECT_EQ(reader.stats().store_reloads, 1);
  reader.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(reader.evaluator().mapping_searches(), 0);
  std::remove(store.c_str());
}

TEST(EvalServiceTest, RefreshRetryBackoffIsMetered) {
  // Every failed-append retry sleeps a jittered backoff; the meter makes
  // that invisible time visible (and provable) through cache_stats.
  const std::string store =
      test::unique_temp_path("naas_no_such_dir") + "/backoff.bin";
  EvalService service(tiny_options(store));
  service.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(service.refresh(), search::StoreStatus::kIoError);
  EXPECT_GT(service.stats().store_refresh_retries, 0);
  // Jitter never rounds to zero: each retry contributes >= 1ms.
  EXPECT_GE(service.stats().store_refresh_backoff_ms,
            service.stats().store_refresh_retries);

  const Json stats = parse_response(
      service.handle_line(R"({"id":9,"method":"cache_stats"})"));
  EXPECT_EQ(stats.get("result")->get("store_refresh_backoff_ms")->as_int(),
            service.stats().store_refresh_backoff_ms);
}

TEST(EvalServiceTest, PingAnswersLocallyAndCheaply) {
  EvalService service(tiny_options());
  EXPECT_EQ(service.handle_line(R"({"id":7,"method":"ping"})"),
            "{\"id\":7,\"ok\":true,\"result\":{\"pong\":true}}");
  // Liveness must not cost evaluation work.
  EXPECT_EQ(service.evaluator().mapping_searches(), 0);
}

TEST(EvalServiceTest, PullStoreRoundTripsThroughHexArmor) {
  // The peer-replication wire format: pull_store hands back the full
  // cache as hex-armored ResultStore segments; an adopting service
  // answers the same queries warm, with zero searches of its own.
  EvalService source(tiny_options());
  source.handle_line(search_line("cifarnet", 0));
  source.handle_line(search_line("cifarnet", 1, 2));
  ASSERT_GT(source.evaluator().mapping_searches(), 0);

  const Json pulled = parse_response(
      source.handle_line(R"({"id":3,"method":"pull_store"})"));
  ASSERT_TRUE(pulled.get("ok")->as_bool());
  const Json* result = pulled.get("result");
  EXPECT_EQ(result->get("format")->as_string(), "naasmaps-hex");
  EXPECT_GE(result->get("entries")->as_int(), 2);

  std::string bytes;
  ASSERT_TRUE(core::from_hex(result->get("data")->as_string(), &bytes));
  search::StoreLoadResult load =
      search::ResultStore::decode(bytes.data(), bytes.size());
  ASSERT_EQ(load.status, search::StoreStatus::kOk);

  EvalService adopter(tiny_options());
  EXPECT_EQ(adopter.adopt_entries(std::move(load.entries)),
            static_cast<std::size_t>(result->get("entries")->as_int()));
  const std::string warm = adopter.handle_line(search_line("cifarnet", 0));
  EXPECT_EQ(warm, source.handle_line(search_line("cifarnet", 0)));
  EXPECT_EQ(adopter.evaluator().mapping_searches(), 0);
}

TEST(EvalServiceTest, CacheStatsAndRefreshMethods) {
  const std::string store = temp_store_path("stats_method");
  std::remove(store.c_str());
  EvalService service(tiny_options(store));
  service.handle_line(search_line("cifarnet", 0));

  const Json refresh = parse_response(
      service.handle_line(R"({"id":1,"method":"refresh"})"));
  ASSERT_TRUE(refresh.get("ok")->as_bool());
  EXPECT_EQ(refresh.get("result")->get("status")->as_string(), "ok");
  EXPECT_GE(refresh.get("result")->get("entries_appended_total")->as_int(),
            1);

  const Json stats = parse_response(
      service.handle_line(R"({"id":2,"method":"cache_stats"})"));
  ASSERT_TRUE(stats.get("ok")->as_bool());
  const Json* result = stats.get("result");
  EXPECT_GE(result->get("cache_entries")->as_int(), 1);
  EXPECT_GE(result->get("mapping_searches")->as_int(), 1);
  EXPECT_GE(result->get("queries")->as_int(), 3);
  EXPECT_GE(result->get("pool_threads")->as_int(), 1);
  std::remove(store.c_str());
}

}  // namespace
}  // namespace naas
