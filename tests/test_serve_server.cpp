// End-to-end daemon tests over a real Unix-domain socket: the
// acceptance invariants from the serving milestone. N concurrent jobs
// over one shared graph cost exactly one load (cache-hit counter ==
// N-1), a deadline-exceeded job fails with the documented code, a
// preempted plan resumes bit-identically, GET /metrics serves live
// serve.* counters mid-run, and shutdown leaves no job directory
// behind.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "io/graph_binary.hpp"
#include "io/json.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "stream/event.hpp"
#include "stream/scenario.hpp"
#include "util/random.hpp"
#include "util/socket.hpp"

namespace rumor::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("rumor_serve_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    util::Xoshiro256 rng(23);
    graph_path_ = (root_ / "graph.bin").string();
    io::save_graph(graph::barabasi_albert(400, 3, rng), graph_path_);
  }
  void TearDown() override {
    server_.reset();
    fs::remove_all(root_);
  }

  /// Start an in-process daemon on a Unix socket under the test root.
  void start_server(std::size_t workers) {
    ServerOptions options;
    options.unix_path = (root_ / "rumord.sock").string();
    options.io_timeout_seconds = 60.0;
    options.scheduler.workers = workers;
    options.scheduler.cache_capacity = 2;
    options.scheduler.job_root = (root_ / "jobs").string();
    options.scheduler.drain_timeout = 500ms;
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
  }

  Client client() {
    Client c = Client::connect_unix(server_->unix_path());
    c.set_timeout(300.0);  // outlives every server-side wait timeout
    return c;
  }

  io::JsonValue spec_with_graph() {
    io::JsonValue spec = io::JsonValue::make_object();
    spec.set("graph", graph_path_);
    return spec;
  }

  /// Raw HTTP over the same socket; returns the full response text.
  std::string http_get(const std::string& path) {
    util::Socket socket = util::Socket::connect_unix(server_->unix_path());
    socket.set_timeout(30.0);
    socket.send_all("GET " + path + " HTTP/1.1\r\nHost: rumord\r\n\r\n");
    std::string response;
    char chunk[4096];
    for (;;) {
      const std::size_t n = socket.recv_some(chunk, sizeof chunk);
      if (n == 0) break;
      response.append(chunk, n);
    }
    return response;
  }

  /// Value of a metric line ("name 42") in Prometheus text; -1 when
  /// the family is absent.
  static double metric_value(const std::string& body,
                             const std::string& name) {
    std::size_t pos = 0;
    while ((pos = body.find(name + " ", pos)) != std::string::npos) {
      if (pos == 0 || body[pos - 1] == '\n') {
        return std::strtod(body.c_str() + pos + name.size() + 1, nullptr);
      }
      pos += name.size();
    }
    return -1.0;
  }

  fs::path root_;
  std::string graph_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeServerTest, ConcurrentJobsShareOneGraphLoad) {
  start_server(/*workers=*/4);
  constexpr int kJobs = 8;
  const std::uint64_t hits_before = serve_metrics().cache_hits.value();
  const std::uint64_t misses_before = serve_metrics().cache_misses.value();

  Client c = client();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    io::JsonValue spec = spec_with_graph();
    spec.set("t_end", 20.0);
    spec.set("seed", 5);  // identical specs: identical results
    ids.push_back(c.submit("simulate", std::move(spec)));
  }
  std::vector<io::JsonValue> jobs;
  for (const std::uint64_t id : ids) jobs.push_back(c.wait(id, 120000ms));

  double first_crc = -1.0;
  for (const io::JsonValue& job : jobs) {
    ASSERT_EQ(job.find("state")->as_string(), "done") << job.dump();
    const double crc = job.find("result")->number_or("state_crc", -1.0);
    if (first_crc < 0) first_crc = crc;
    EXPECT_EQ(crc, first_crc);  // same seed, same graph: same end state
  }
  // The acceptance invariant: the graph was loaded exactly once; every
  // other job's get() was a hit (coalesced or ready).
  EXPECT_EQ(serve_metrics().cache_misses.value(), misses_before + 1);
  EXPECT_EQ(serve_metrics().cache_hits.value(),
            hits_before + (kJobs - 1));
}

TEST_F(ServeServerTest, DeadlineExceededIsReportedWithItsCode) {
  start_server(/*workers=*/1);
  Client c = client();
  io::JsonValue spec = spec_with_graph();
  spec.set("seeds", 1000000);  // far longer than the deadline allows
  spec.set("t_end", 50.0);
  const std::uint64_t id =
      c.submit("sweep", std::move(spec), /*priority=*/0, /*timeout_ms=*/150);
  const io::JsonValue job = c.wait(id, 60000ms);
  EXPECT_EQ(job.find("state")->as_string(), "failed");
  EXPECT_EQ(job.find("error")->find("code")->as_string(),
            kErrDeadlineExceeded);
}

TEST_F(ServeServerTest, PreemptedPlanMatchesUninterruptedRun) {
  start_server(/*workers=*/1);
  Client c = client();
  io::JsonValue plan_spec = spec_with_graph();
  plan_spec.set("groups", 6);
  plan_spec.set("tf", 8.0);
  plan_spec.set("grid_points", 301);
  plan_spec.set("substeps", 16);
  plan_spec.set("max_iterations", 60);

  const std::uint64_t clean_id = c.submit("plan", plan_spec);
  const io::JsonValue clean = c.wait(clean_id, 180000ms);
  ASSERT_EQ(clean.find("state")->as_string(), "done") << clean.dump();

  const std::uint64_t victim_id = c.submit("plan", plan_spec);
  const auto poll_deadline = std::chrono::steady_clock::now() + 30s;
  while (c.status(victim_id).find("state")->as_string() != "running") {
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(1ms);
  }
  io::JsonValue intruder_spec = spec_with_graph();
  intruder_spec.set("t_end", 1.0);
  const std::uint64_t intruder_id =
      c.submit("simulate", std::move(intruder_spec), /*priority=*/10);
  (void)c.wait(intruder_id, 60000ms);
  const io::JsonValue victim = c.wait(victim_id, 180000ms);

  ASSERT_EQ(victim.find("state")->as_string(), "done") << victim.dump();
  EXPECT_GE(victim.find("preemptions")->as_number(), 1.0);
  EXPECT_EQ(victim.find("result")->number_or("control_crc", -1.0),
            clean.find("result")->number_or("control_crc", -2.0));
  EXPECT_EQ(victim.find("result")->number_or("objective", -1.0),
            clean.find("result")->number_or("objective", -2.0));
}

TEST_F(ServeServerTest, MetricsEndpointIsLiveDuringARun) {
  start_server(/*workers=*/1);
  Client c = client();
  io::JsonValue spec = spec_with_graph();
  spec.set("seeds", 1000000);
  spec.set("t_end", 50.0);
  const std::uint64_t id = c.submit("sweep", std::move(spec));
  const auto poll_deadline = std::chrono::steady_clock::now() + 30s;
  while (c.status(id).find("state")->as_string() != "running") {
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(1ms);
  }

  const std::string response = http_get("/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // Live serve.* families, observed while the job is still running.
  EXPECT_GE(metric_value(response, "rumor_serve_jobs_submitted_total"), 1.0);
  EXPECT_EQ(metric_value(response, "rumor_serve_jobs_running"), 1.0);
  EXPECT_GE(metric_value(response, "rumor_serve_cache_misses_total"), 1.0);
  EXPECT_GE(metric_value(response, "rumor_serve_requests_total"), 1.0);

  EXPECT_TRUE(c.cancel(id));
  (void)c.wait(id, 30000ms);
}

TEST_F(ServeServerTest, HttpShimServesHealthJobsAndNotFound) {
  start_server(/*workers=*/1);
  Client c = client();
  io::JsonValue spec = spec_with_graph();
  spec.set("t_end", 2.0);
  const std::uint64_t id = c.submit("simulate", std::move(spec));
  (void)c.wait(id, 60000ms);

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string job = http_get("/jobs/" + std::to_string(id));
  EXPECT_NE(job.find("200 OK"), std::string::npos);
  EXPECT_NE(job.find("\"state\":\"done\""), std::string::npos);

  EXPECT_NE(http_get("/jobs/12345").find("404"), std::string::npos);
  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
}

TEST_F(ServeServerTest, ProtocolErrorsUseDocumentedCodes) {
  start_server(/*workers=*/1);
  Client c = client();
  EXPECT_TRUE(c.ping());

  // Unknown op.
  io::JsonValue bad_op = io::JsonValue::make_object();
  bad_op.set("op", "frobnicate");
  io::JsonValue response = c.request(bad_op);
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("error")->find("code")->as_string(),
            kErrBadRequest);

  // Unknown job ids.
  io::JsonValue status = io::JsonValue::make_object();
  status.set("op", "status");
  status.set("id", 9999);
  response = c.request(status);
  EXPECT_EQ(response.find("error")->find("code")->as_string(), kErrNotFound);

  io::JsonValue cancel = io::JsonValue::make_object();
  cancel.set("op", "cancel");
  cancel.set("id", 9999);
  response = c.request(cancel);
  EXPECT_EQ(response.find("error")->find("code")->as_string(), kErrNotFound);

  // Bad submit type.
  io::JsonValue submit = io::JsonValue::make_object();
  submit.set("op", "submit");
  submit.set("type", "teleport");
  response = c.request(submit);
  EXPECT_EQ(response.find("error")->find("code")->as_string(),
            kErrBadRequest);

  // The metrics op returns live Prometheus text inline.
  io::JsonValue metrics = io::JsonValue::make_object();
  metrics.set("op", "metrics");
  response = c.request(metrics);
  EXPECT_TRUE(response.find("ok")->as_bool());
  EXPECT_NE(response.find("prometheus")->as_string().find(
                "rumor_serve_requests_total"),
            std::string::npos);
}

TEST_F(ServeServerTest, VersionOpReportsBuildProvenance) {
  start_server(/*workers=*/1);
  Client c = client();
  io::JsonValue version = io::JsonValue::make_object();
  version.set("op", "version");
  const io::JsonValue response = c.request(version);
  ASSERT_TRUE(response.find("ok")->as_bool());
  EXPECT_FALSE(response.find("version")->as_string().empty());
  EXPECT_FALSE(response.find("build_type")->as_string().empty());
  EXPECT_FALSE(response.find("compiler")->as_string().empty());
  const std::string backend = response.find("kernel_backend")->as_string();
  EXPECT_TRUE(backend == "scalar" || backend == "avx2" ||
              backend == "avx512")
      << backend;
}

TEST_F(ServeServerTest, StreamJobRunsResumesAndMatchesUninterrupted) {
  start_server(/*workers=*/1);
  Client c = client();

  // Write a small scripted scenario next to the test root. Replanning
  // on every tick with 8 substeps sizes one run at ~205 ms (RelWithDebInfo,
  // one 4-vCPU VM; 30 ticks replanned every fifth tick took ~9 ms), so the
  // victim below is still running when the intruder preempts it.
  stream::ScenarioSpec scenario;
  scenario.num_nodes = 120;
  scenario.initial_nodes = 40;
  scenario.ticks = 60;
  scenario.seed_tick = 5;
  scenario.drift_tick = 15;
  const std::string events_path = (root_ / "events.bin").string();
  stream::save_event_log(stream::make_scenario(scenario), events_path,
                         stream::EventLogWriter::Format::kBinary);

  io::JsonValue spec = io::JsonValue::make_object();
  spec.set("events", events_path);
  spec.set("num_nodes", 120);
  spec.set("budget_iterations", 40);
  spec.set("max_iterations", 60);
  spec.set("groups", 6);
  spec.set("horizon", 6.0);
  spec.set("replan_every", 1);
  spec.set("substeps", 8);

  const std::uint64_t clean_id = c.submit("stream", spec);
  const io::JsonValue clean = c.wait(clean_id, 180000ms);
  ASSERT_EQ(clean.find("state")->as_string(), "done") << clean.dump();
  const io::JsonValue* result = clean.find("result");
  EXPECT_EQ(result->number_or("ticks", -1.0), 60.0);
  EXPECT_GT(result->number_or("plans", -1.0), 0.0);

  // Preempt a second identical run, then let it resume: the decision
  // and state CRCs must match the uninterrupted run's exactly.
  // Leave the poll on any state past queued: a job can pass through
  // running between two polls, and waiting to see it would never end.
  const std::uint64_t victim_id = c.submit("stream", spec);
  const auto poll_deadline = std::chrono::steady_clock::now() + 30s;
  while (c.status(victim_id).find("state")->as_string() == "queued") {
    ASSERT_LT(std::chrono::steady_clock::now(), poll_deadline);
    std::this_thread::sleep_for(1ms);
  }
  io::JsonValue intruder_spec = spec_with_graph();
  intruder_spec.set("t_end", 1.0);
  const std::uint64_t intruder_id =
      c.submit("simulate", std::move(intruder_spec), /*priority=*/10);
  (void)c.wait(intruder_id, 60000ms);
  const io::JsonValue victim = c.wait(victim_id, 180000ms);
  ASSERT_EQ(victim.find("state")->as_string(), "done") << victim.dump();
  // The victim took the checkpoint-and-resume path.
  EXPECT_GE(victim.find("preemptions")->as_number(), 1.0);
  EXPECT_EQ(victim.find("result")->number_or("decision_crc", -1.0),
            clean.find("result")->number_or("decision_crc", -2.0));
  EXPECT_EQ(victim.find("result")->number_or("state_crc", -1.0),
            clean.find("result")->number_or("state_crc", -2.0));
  EXPECT_EQ(victim.find("result")->number_or("realized_objective", -1.0),
            clean.find("result")->number_or("realized_objective", -2.0));
}

TEST_F(ServeServerTest, MalformedJsonLineGetsBadRequestResponse) {
  start_server(/*workers=*/1);
  util::Socket socket = util::Socket::connect_unix(server_->unix_path());
  socket.set_timeout(30.0);
  socket.send_all("{\"op\": \"ping\"  this is not json\n");
  std::string buffer;
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    const std::size_t n = socket.recv_some(chunk, sizeof chunk);
    ASSERT_GT(n, 0u);
    buffer.append(chunk, n);
  }
  const io::JsonValue response =
      io::JsonValue::parse(buffer.substr(0, buffer.find('\n')));
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("error")->find("code")->as_string(),
            kErrBadRequest);
}

TEST_F(ServeServerTest, ShutdownOpStopsCleanlyWithoutLeakingJobDirs) {
  start_server(/*workers=*/2);
  Client c = client();
  io::JsonValue spec = spec_with_graph();
  spec.set("t_end", 2.0);
  const std::uint64_t id = c.submit("simulate", std::move(spec));
  (void)c.wait(id, 60000ms);

  c.shutdown_server();
  server_->wait();  // returns only after a complete teardown

  // No leaked per-job directories.
  EXPECT_TRUE(fs::is_empty(root_ / "jobs"));
  // The scheduler rejects anything submitted after the drain.
  const auto late = server_->scheduler().submit(
      JobType::kSimulate, spec_with_graph(), 0, 0);
  EXPECT_EQ(late.job, nullptr);
  EXPECT_EQ(late.error_code, kErrShuttingDown);
  // The listener unlinks its socket file when the server is destroyed
  // (at process exit for the rumord binary).
  server_.reset();
  EXPECT_FALSE(fs::exists(root_ / "rumord.sock"));
}

}  // namespace
}  // namespace rumor::serve
