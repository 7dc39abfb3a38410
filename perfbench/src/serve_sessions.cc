// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// serve_sessions: closed-loop active-learning sessions against an
// in-process net::Server, with the mc_loadgen session mix (README.md).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "bench.h"
#include "core/chain_decomposition.h"
#include "core/classifier.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "passive/flow_solver.h"
#include "util/concurrency.h"
#include "util/random.h"

namespace perfbench {
namespace {

using monoclass::LabeledPointSet;
namespace net = monoclass::net;

// The mc_loadgen --ci mix: session j draws from Rng(seed, j).
constexpr size_t kSizeStep = 16;
constexpr size_t kZipfRanks = 10;
constexpr double kZipfS = 1.2;
constexpr size_t kPartialEvery = 8;
constexpr size_t kPassiveEvery = 10;
constexpr double kEpsilon = 0.5;
constexpr double kDelta = 0.01;

// Sessions generated at set-up; session j of a window uses spec j mod
// this count, so a window longer than the pool replays specs.
constexpr size_t kSpecs = 16384;
constexpr size_t kSmokeSpecs = 192;
constexpr size_t kSetupReps = 3;
// Traced sessions whose answers are replayed in-process for the net,
// active, core and passive layer timings.
constexpr size_t kReplayedSessions = 384;
constexpr size_t kSmokeReplayedSessions = 32;

// The checked-in BENCH_SERVE_CI.json counters (mc_loadgen --ci).
constexpr uint64_t kCiSeed = 2026;
constexpr size_t kCiSessions = 520;
constexpr uint64_t kCiSteps = 5913;
constexpr uint64_t kCiReplays = 6433;

struct Spec {
  LabeledPointSet data;
  uint64_t session_seed = 0;
  bool partial = false;
  bool passive = false;
};

size_t SampleZipfRank(monoclass::Rng& rng) {
  std::vector<double> cumulative(kZipfRanks);
  double total = 0.0;
  for (size_t r = 1; r <= kZipfRanks; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), kZipfS);
    cumulative[r - 1] = total;
  }
  const double u = rng.UniformDouble();
  for (size_t i = 0; i < kZipfRanks; ++i) {
    if (u <= cumulative[i] / total) return i + 1;
  }
  return kZipfRanks;
}

Spec MakeSpec(uint64_t seed, size_t j) {
  monoclass::Rng rng(seed, static_cast<uint64_t>(j));
  const size_t n = kSizeStep * SampleZipfRank(rng);
  monoclass::PlantedOptions planted;
  planted.num_points = n;
  planted.dimension = 2;
  planted.noise_flips = n / 10;
  planted.seed = seed * 1000003 + j;
  Spec spec;
  spec.data = monoclass::GeneratePlanted(planted).data;
  spec.session_seed = seed + j;
  spec.partial = j % kPartialEvery == 0;
  spec.passive = j % kPassiveEvery == 0;
  return spec;
}

struct SessionRecord {
  size_t job = 0;
  size_t spec = 0;
  bool ok = false;
  double end_us = 0.0;  // completion, from the window's start
  double session_ms = 0.0;
  // Round trips of the open and every step, in order.
  std::vector<double> request_us;
  double passive_us = 0.0;
  net::SessionResultMessage result;
  net::PassiveSolveResult passive;
  // The answer batches sent, kept for traced sessions that are replayed.
  std::vector<std::pair<std::vector<uint64_t>, std::vector<uint8_t>>> answers;
};

struct WindowConfig {
  uint16_t port = 0;
  size_t clients = 1;
  double seconds = 0.0;     // > 0: stop starting sessions after this long
  size_t sessions = 0;      // seconds == 0: run exactly this many
  size_t first_job = 0;     // job index of the window's first session
  size_t record_answers = 0;  // keep answers of jobs below first + this
  bool inject_fault = false;
};

struct ServeWindow {
  std::vector<SessionRecord> sessions;
  double wall_us = 0.0;
  // Sessions completed in each whole second of the window.
  std::vector<size_t> per_second;
};

void RunSession(net::Client& client, const std::vector<Spec>& specs,
                const WindowConfig& config, SpanRecorder& spans,
                SessionRecord& record) {
  const size_t job = record.job;
  const Spec& spec = specs[record.spec];
  const bool keep_answers = job < config.first_job + config.record_answers;
  ScopedSpan root(spans, "serve_sessions.job", job);

  net::SessionOpenRequest open;
  open.points = spec.data.points();
  open.seed = spec.session_seed;
  open.epsilon = kEpsilon;
  open.delta = kDelta;
  const double session_start = NowUs();
  net::Client::SessionState state;
  {
    ScopedSpan span(spans, "net.Client::OpenSession", job, root.handle());
    state = client.OpenSession(open);
  }
  record.request_us.push_back(NowUs() - session_start);
  size_t step = 0;
  while (!state.done) {
    std::vector<uint64_t> indices = state.probe_indices;
    // Every kPartialEvery-th session answers the first half of every
    // other batch; the server must re-issue the rest.
    if (spec.partial && indices.size() > 1 && step % 2 == 0) {
      indices.resize(indices.size() / 2);
    }
    ++step;
    std::vector<uint8_t> labels(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      labels[i] = spec.data.label(static_cast<size_t>(indices[i]));
    }
    const double t0 = NowUs();
    {
      ScopedSpan span(spans, "net.Client::StepSession", job, root.handle());
      state = client.StepSession(state.session_id, indices, labels);
    }
    record.request_us.push_back(NowUs() - t0);
    if (keep_answers) {
      record.answers.emplace_back(std::move(indices), std::move(labels));
    }
  }
  record.session_ms = (NowUs() - session_start) / 1000.0;
  record.result = std::move(state.result);
  if (config.inject_fault && job == config.first_job) {
    ++record.result.probes;  // a corrupted served answer
  }

  if (spec.passive) {
    net::PassiveSolveRequest request;
    request.points = spec.data.points();
    request.labels = spec.data.labels();
    const double t0 = NowUs();
    {
      ScopedSpan span(spans, "net.Client::PassiveSolve", job, root.handle());
      record.passive = client.PassiveSolve(request);
    }
    record.passive_us = NowUs() - t0;
  }
  record.ok = true;
}

// nproc closed-loop clients with no think time.
ServeWindow RunWindow(const std::vector<Spec>& specs,
                      const WindowConfig& config, SpanRecorder& spans) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<SessionRecord>> per_client(config.clients);
  std::vector<double> last_end(config.clients, 0.0);
  const double start = NowUs();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client;
      bool connected = client.Connect("127.0.0.1", config.port);
      while (true) {
        const size_t k = next.fetch_add(1);
        if (config.seconds > 0.0 ? NowUs() - start >= config.seconds * 1e6
                                 : k >= config.sessions) {
          break;
        }
        SessionRecord record;
        record.job = config.first_job + k;
        record.spec = record.job % specs.size();
        if (connected) {
          try {
            RunSession(client, specs, config, spans, record);
          } catch (const std::exception& error) {
            std::fprintf(stderr, "perfbench: session %zu: %s\n", record.job,
                         error.what());
            record.ok = false;
            client.Disconnect();
            connected = client.Connect("127.0.0.1", config.port);
          }
        }
        last_end[c] = NowUs();
        record.end_us = last_end[c] - start;
        per_client[c].push_back(std::move(record));
        if (!connected) break;  // the job is already recorded as failed
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ServeWindow window;
  for (auto& records : per_client) {
    for (SessionRecord& record : records) {
      window.sessions.push_back(std::move(record));
    }
  }
  std::sort(window.sessions.begin(), window.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.job < b.job;
            });
  window.wall_us = *std::max_element(last_end.begin(), last_end.end()) - start;
  window.per_second.assign(static_cast<size_t>(config.seconds), 0);
  for (const SessionRecord& record : window.sessions) {
    const size_t second = static_cast<size_t>(record.end_us / 1e6);
    if (record.ok && second < window.per_second.size()) {
      ++window.per_second[second];
    }
  }
  return window;
}

std::unique_ptr<net::Server> StartServer(size_t threads) {
  net::ServerOptions server_options;
  server_options.parallel.threads = threads;
  server_options.sessions.ttl_ms = 0;
  server_options.allow_remote_shutdown = false;
  auto server = std::make_unique<net::Server>(server_options);
  if (!server->Start()) throw std::runtime_error("server failed to start");
  return server;
}

struct Reference {
  monoclass::ActiveSolveResult active{
      .classifier = monoclass::MonotoneClassifier::AlwaysZero(1)};
  monoclass::PassiveSolveResult passive{
      .classifier = monoclass::MonotoneClassifier::AlwaysZero(1)};
};

monoclass::ActiveSolveOptions SessionSolveOptions(const Spec& spec) {
  monoclass::ActiveSolveOptions options;
  options.sampling =
      monoclass::ActiveSamplingParams::Practical(kEpsilon, kDelta);
  options.seed = spec.session_seed;
  options.parallel.threads = 1;
  return options;
}

// Compares every session bit-for-bit with a local uninterrupted solve,
// and every passive reply with a local SolvePassiveUnweighted. Returns
// err_P(h) / max(1, k*) per session.
Samples Verify(const std::vector<Spec>& specs,
               const std::vector<const ServeWindow*>& windows, size_t threads,
               Results& results) {
  std::vector<size_t> used;
  std::vector<bool> seen(specs.size(), false);
  for (const ServeWindow* window : windows) {
    for (const SessionRecord& record : window->sessions) {
      if (!seen[record.spec]) used.push_back(record.spec);
      seen[record.spec] = true;
    }
  }
  std::vector<Reference> references(specs.size());
  monoclass::ParallelOptions parallel;
  parallel.threads = threads;
  monoclass::ParallelForEach(used.size(), parallel, [&](size_t k) {
    const Spec& spec = specs[used[k]];
    monoclass::InMemoryOracle oracle(spec.data);
    references[used[k]].active = monoclass::SolveActiveMultiD(
        spec.data.points(), oracle, SessionSolveOptions(spec));
    references[used[k]].passive = monoclass::SolvePassiveUnweighted(spec.data);
  });

  Samples err_over_kstar;
  for (const ServeWindow* window : windows) {
    for (const SessionRecord& record : window->sessions) {
      const Spec& spec = specs[record.spec];
      const Reference& reference = references[record.spec];
      results.Attempt();
      if (!record.ok) {
        results.Fail("session " + std::to_string(record.job) + " errored");
        if (spec.passive) results.Attempt();
        continue;
      }
      if (record.result.classifier.generators() !=
              reference.active.classifier.generators() ||
          record.result.probes != reference.active.probes) {
        results.Fail("session " + std::to_string(record.job) +
                     " differs from the local solve");
      }
      const double kstar = reference.passive.optimal_weighted_error;
      err_over_kstar.Add(
          static_cast<double>(
              monoclass::CountErrors(record.result.classifier, spec.data)) /
          std::max(1.0, kstar));
      if (spec.passive) {
        results.Attempt();
        if (record.passive.classifier.generators() !=
                reference.passive.classifier.generators() ||
            record.passive.optimal_weighted_error != kstar) {
          results.Fail("passive reply of job " + std::to_string(record.job) +
                       " differs from the local solve");
        }
      }
    }
  }
  return err_over_kstar;
}

// The loadgen's CI preset against a fresh server must reproduce the
// server counters checked in as BENCH_SERVE_CI.json.
void CounterCrossCheck(size_t threads, Results& results) {
  std::vector<Spec> specs;
  for (size_t j = 0; j < kCiSessions; ++j) specs.push_back(MakeSpec(kCiSeed, j));
  BeginObsWindow();
  std::unique_ptr<net::Server> server = StartServer(threads);
  WindowConfig config;
  config.port = server->port();
  config.clients = threads;
  config.sessions = kCiSessions;
  SpanRecorder untraced(false);
  const ServeWindow window = RunWindow(specs, config, untraced);
  server->Stop();
  const uint64_t opened = ObsCounter("mc.srv.sessions_opened");
  const uint64_t steps = ObsCounter("mc.srv.session_steps");
  const uint64_t replays = ObsCounter("mc.srv.session_replays");
  EndObsWindow();
  std::printf("counter cross-check (seed %llu, %zu sessions): opened %llu, "
              "steps %llu, replays %llu\n",
              static_cast<unsigned long long>(kCiSeed), kCiSessions,
              static_cast<unsigned long long>(opened),
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(replays));
  if (opened != kCiSessions || steps != kCiSteps || replays != kCiReplays) {
    results.Violation("counter cross-check against BENCH_SERVE_CI.json");
  }
}

struct Throughput {
  double sessions_per_s = 0.0;
  size_t sessions = 0;
};

Throughput ReportWindow(const ServeWindow& window, Results& results) {
  Samples request_ms, session_ms, round_trips, probes;
  size_t completed = 0;
  for (const SessionRecord& record : window.sessions) {
    if (!record.ok) {
      // A failed session misses any latency limit.
      request_ms.Add(INFINITY);
      session_ms.Add(INFINITY);
      continue;
    }
    ++completed;
    for (const double us : record.request_us) request_ms.Add(us / 1000.0);
    if (record.passive_us > 0.0) request_ms.Add(record.passive_us / 1000.0);
    session_ms.Add(record.session_ms);
    round_trips.Add(static_cast<double>(record.request_us.size()));
    probes.Add(static_cast<double>(record.result.probes));
  }
  Throughput throughput;
  throughput.sessions = completed;
  throughput.sessions_per_s =
      static_cast<double>(completed) / (window.wall_us / 1e6);
  // Gated: the median over whole seconds, which a burst of noise in one
  // second cannot move; the window-wide rate is printed beside it.
  Samples per_second;
  for (const size_t count : window.per_second) {
    per_second.Add(static_cast<double>(count));
  }
  if (per_second.empty()) per_second.Add(throughput.sessions_per_s);
  results.SetMedian("throughput_per_s", per_second, "1/s");
  results.Set("sessions_per_s", throughput.sessions_per_s, "1/s", completed);
  results.SetMedian("op_ms.p50", request_ms, "ms");
  results.Set("op_ms.p90", request_ms.Quantile(0.9), "ms", request_ms.size());
  results.SetMedian("step_ms.p50", request_ms, "ms");
  results.Set("step_ms.p99", request_ms.Quantile(0.99), "ms",
              request_ms.size());
  results.SetMedian("job_ms.p50", session_ms, "ms");
  results.SetMedian("session_ms.p50", session_ms, "ms");
  results.Set("round_trips_per_session", round_trips.Mean(), "count",
              round_trips.size());
  results.Set("probes_per_session", probes.Mean(), "count", probes.size());
  return throughput;
}

// Per-layer timings from outside the server: each recorded session is
// driven through net::Session in-process over its recorded answers, and
// solved once more uninterrupted with its stages timed on their own.
void ReplayLayers(const std::vector<Spec>& specs, const ServeWindow& window,
                  size_t limit, SpanRecorder& spans, Results& results) {
  Samples step_us, wire_us, solve_us, decompose_us, sigma_us, chains_us,
      chain_count, levels_per_chain, utilization;
  const size_t first_job = window.sessions.empty() ? 0 : window.sessions[0].job;
  for (const SessionRecord& record : window.sessions) {
    if (!record.ok || record.job >= first_job + limit) {
      continue;
    }
    const Spec& spec = specs[record.spec];
    ScopedSpan root(spans, "serve_sessions.replay", record.job);
    net::SessionOptions session_options;
    session_options.seed = spec.session_seed;
    session_options.epsilon = kEpsilon;
    session_options.delta = kDelta;
    net::Session session(spec.data.points(), session_options);
    for (size_t i = 0; i <= record.answers.size(); ++i) {
      static const std::vector<uint64_t> kNoIndices;
      static const std::vector<uint8_t> kNoLabels;
      ScopedSpan span(spans, "net.Session::Step", record.job, root.handle());
      const double t0 = NowUs();
      session.Step(i == 0 ? kNoIndices : record.answers[i - 1].first,
                   i == 0 ? kNoLabels : record.answers[i - 1].second);
      const double elapsed = NowUs() - t0;
      step_us.Add(elapsed);
      wire_us.Add(record.request_us[i] - elapsed);
    }

    monoclass::InMemoryOracle oracle(spec.data);
    double t0 = NowUs();
    monoclass::ActiveSolveResult solved{
        .classifier = monoclass::MonotoneClassifier::AlwaysZero(1)};
    {
      ScopedSpan span(spans, "active.SolveActiveMultiD", record.job,
                      root.handle());
      solved = monoclass::SolveActiveMultiD(spec.data.points(), oracle,
                                            SessionSolveOptions(spec));
    }
    const double solve = NowUs() - t0;
    t0 = NowUs();
    size_t chains = 0;
    {
      ScopedSpan span(spans, "core.MinimumChainDecomposition", record.job,
                      root.handle());
      chains = monoclass::MinimumChainDecomposition(spec.data.points())
                   .NumChains();
    }
    const double decompose = NowUs() - t0;
    t0 = NowUs();
    {
      ScopedSpan span(spans, "passive.SolvePassiveWeighted", record.job,
                      root.handle());
      monoclass::SolvePassiveWeighted(solved.sigma);
    }
    const double sigma = NowUs() - t0;
    solve_us.Add(solve);
    decompose_us.Add(decompose);
    sigma_us.Add(sigma);
    chains_us.Add(solve - decompose - sigma);
    chain_count.Add(static_cast<double>(chains));
    levels_per_chain.Add(static_cast<double>(solved.total_levels) /
                         static_cast<double>(solved.num_chains));
    utilization.Add(solved.probe_budget.utilization);
  }
  results.SetMedian("net.session_step_us.p50", step_us, "us");
  results.Set("net.session_step_us.p99", step_us.Quantile(0.99), "us",
              step_us.size());
  results.SetMedian("net.wire_us.p50", wire_us, "us");
  results.SetMedian("active.solve_us.p50", solve_us, "us");
  results.SetMedian("active.chains_us.p50", chains_us, "us");
  results.SetMedian("core.decompose_us.p50", decompose_us, "us");
  results.Set("core.chain_count.mean", chain_count.Mean(), "count",
              chain_count.size());
  results.SetMedian("passive.sigma_solve_us.p50", sigma_us, "us");
  results.Set("active.levels_per_chain", levels_per_chain.Mean(), "count",
              levels_per_chain.size());
  results.Set("active.probe_budget_utilization", utilization.Mean(), "ratio",
              utilization.size());
}

}  // namespace

void RunServeSessions(const Options& options, Results& results) {
  const size_t num_specs = options.smoke ? kSmokeSpecs : kSpecs;
  std::vector<Spec> specs;
  specs.reserve(num_specs);
  Samples setup_s, generate_s;
  std::unique_ptr<net::Server> server;
  for (size_t r = 0; r < kSetupReps; ++r) {
    if (server) server->Stop();
    server.reset();
    const double t0 = NowUs();
    for (size_t j = r * num_specs / kSetupReps;
         j < (r + 1) * num_specs / kSetupReps; ++j) {
      specs.push_back(MakeSpec(options.seed, j));
    }
    const double t1 = NowUs();
    server = StartServer(options.threads);
    const double t2 = NowUs();
    generate_s.Add((t1 - t0) / 1e6);
    setup_s.Add((t2 - t0) / 1e6);
  }
  results.SetMedian("setup_s", setup_s, "s");

  WindowConfig config;
  config.port = server->port();
  config.clients = options.threads;
  config.seconds = options.seconds;
  config.inject_fault = options.inject_fault;
  SpanRecorder untraced(false);
  const ServeWindow window = RunWindow(specs, config, untraced);
  const Throughput untraced_throughput = ReportWindow(window, results);
  std::vector<const ServeWindow*> verified = {&window};

  ServeWindow traced_window;
  if (options.trace) {
    SpanRecorder spans(true);
    config.first_job = window.sessions.size();
    config.record_answers =
        options.smoke ? kSmokeReplayedSessions : kReplayedSessions;
    config.inject_fault = false;
    BeginObsWindow();
    traced_window = RunWindow(specs, config, spans);
    server->Stop();
    Results traced_results;
    const Throughput traced = ReportWindow(traced_window, traced_results);
    const double sessions = static_cast<double>(traced.sessions);
    SetCommonLayerMetrics(results, sessions);
    results.Set("net.frames_per_session",
                static_cast<double>(ObsCounter("mc.srv.frames_rx") +
                                    ObsCounter("mc.srv.frames_tx")) /
                    sessions,
                "count", traced.sessions);
    results.Set("net.bytes_per_session",
                static_cast<double>(ObsCounter("mc.srv.bytes_rx") +
                                    ObsCounter("mc.srv.bytes_tx")) /
                    sessions,
                "bytes", traced.sessions);
    results.Set("active.replays_per_session",
                static_cast<double>(ObsCounter("mc.srv.session_replays")) /
                    sessions,
                "count", traced.sessions);
    results.Set(
        "graph.matching_augmentations_per_session",
        static_cast<double>(ObsCounter("graph.matching.augmentations")) /
            sessions,
        "count", traced.sessions);
    results.Set("obs.trace_overhead_share",
                untraced_throughput.sessions_per_s / traced.sessions_per_s -
                    1.0,
                "ratio", traced.sessions);
    results.SetMedian("data.generate_s", generate_s, "s");
    {
      // On a pool thread, as in the server's handlers: nested parallel
      // calls of the solvers then run inline there too.
      monoclass::ThreadPool replay_pool(1);
      replay_pool.Submit([&] {
        try {
          ReplayLayers(specs, traced_window, config.record_answers, spans,
                       results);
        } catch (const std::exception& error) {
          results.Violation(std::string("in-process replay: ") +
                            error.what());
        }
      });
    }  // drains and joins

    EndObsWindow();
    if (!spans.Write(options.span_path, options)) {
      results.Violation("cannot write spans to " + options.span_path);
    }
    verified.push_back(&traced_window);
    CounterCrossCheck(options.threads, results);
  }
  server->Stop();

  const Samples err_over_kstar =
      Verify(specs, verified, options.threads, results);
  results.Set("err_over_kstar", err_over_kstar.Mean(), "ratio",
              err_over_kstar.size());
}

}  // namespace perfbench
