// End-to-end load generator of the gStoreD benchmark. One process runs one
// workload: it parses the generated N-Triples text, partitions it over four
// hash sites and builds the engine (several times, for setup_s), evaluates
// every distinct query instance once with the centralized matcher (the
// answer oracle), then either
//   * drives a closed loop through DistributedEngine::Run or
//     serve::ServingEngine::Submit for --seconds and reports the end-to-end
//     metrics (--trace 0), or
//   * replays the workload's instances through the engine's public layer
//     functions with a span around each call and reports per-layer self
//     times and counts (--trace 1).
// The last line of stdout is the result object.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "partition/partitioners.h"
#include "rdf/dataset.h"
#include "serve/scheduler.h"
#include "sparql/parser.h"
#include "store/local_store.h"
#include "store/matcher.h"
#include "trace.h"
#include "util/hash.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using gstored::Binding;
using gstored::QueryOutcome;

/// Setups per run; setup_s and the load.* metrics are their medians.
constexpr int kSetupReps = 9;
/// Requests of the instance stream whose distinct instances the traced run
/// replays on a Run workload (weighted by their multiplicity).
constexpr size_t kTraceStreamLength = 200;
/// Requests per serving client before the timed window, so the result cache
/// reaches its steady hit share first.
constexpr size_t kServeWarmupPerClient = 3000;
/// A reported percentile must sit at least this many points inside one
/// query class.
constexpr double kPlacementMarginPts = 5.0;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Order-sensitive hash of a sorted, deduplicated binding set.
uint64_t BindingsHash(const std::vector<Binding>& sorted) {
  uint64_t h = gstored::HashCombine(0x243f6a8885a308d3ULL, sorted.size());
  for (const Binding& row : sorted) {
    h = gstored::HashCombine(h, gstored::HashRange(row.begin(), row.end()));
  }
  return h;
}

uint64_t OutcomeHash(const std::vector<Binding>& matches) {
  if (std::is_sorted(matches.begin(), matches.end()) &&
      std::adjacent_find(matches.begin(), matches.end()) == matches.end()) {
    return BindingsHash(matches);
  }
  std::vector<Binding> copy = matches;
  gstored::DedupBindings(&copy);
  return BindingsHash(copy);
}

// ---------------------------------------------------------------------------
// Arguments and the environment record.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/// Restricts the process to the last CPU it may run on, before any thread
/// starts (threads inherit the mask). Returns that CPU, or -1 if the mask
/// could not be read or set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// The instance stream's seed, derived from --seed.
uint64_t StreamSeed(uint64_t seed) {
  return gstored::MixU64(seed ^ 0x9e3779b97f4a7c15ULL);
}

void PrintEnvironment(const Args& args, const WorkloadSpec& spec,
                      size_t triples, int pinned_cpu) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  // Serving divides total_slots among the queries in flight, so its
  // slots x in-flight product is total_slots; Run gives every query all.
  const size_t product = spec.front == Front::kServe
                             ? spec.engine_slots
                             : spec.engine_slots * spec.inflight;
  std::printf(
      "{\"record\": \"env\", \"workload\": \"%s\", \"nproc\": %ld, "
      "\"engine_slots\": %zu, \"queries_in_flight\": %zu, "
      "\"client_threads\": %zu, \"slots_x_in_flight\": %zu, "
      "\"pinned_cpu\": %d, \"sites\": %d, "
      "\"build_type\": \"%s\", \"seed\": %llu, \"data_seed\": %llu, "
      "\"stream_seed\": %llu, "
      "\"commit\": \"%s\", \"triples\": %zu, \"distinct_instances\": %zu, "
      "\"trace\": %d}\n",
      spec.name.c_str(), nproc, spec.engine_slots, spec.inflight,
      spec.clients, product, pinned_cpu, spec.sites, PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(spec.data_seed),
      static_cast<unsigned long long>(StreamSeed(args.seed)),
      args.commit.c_str(), triples, spec.instances.size(),
      args.trace ? 1 : 0);
  if (product > 2) {
    std::fprintf(stderr,
                 "warning: engine slots x queries in flight = %zu > 2; wall "
                 "times swing with thread count on a small machine\n",
                 product);
  }
}

// ---------------------------------------------------------------------------
// Setup: N-Triples parse -> Finalize -> partition -> engine (-> server).
// ---------------------------------------------------------------------------

struct System {
  gstored::Dataset data;
  std::unique_ptr<gstored::Partitioning> partitioning;
  std::unique_ptr<gstored::DistributedEngine> engine;
  std::unique_ptr<gstored::serve::ServingEngine> server;
};

struct LoadTimes {
  double parse_ms = 0, finalize_ms = 0, partition_ms = 0, store_build_ms = 0;
  double total_s = 0;
};

std::unique_ptr<System> BuildSystem(const Generated& gen, LoadTimes* times) {
  auto sys = std::make_unique<System>();
  const Clock::time_point t0 = Clock::now();
  gstored::Status parsed = gstored::ParseNTriples(gen.ntriples, &sys->data);
  if (!parsed.ok()) {
    std::fprintf(stderr, "N-Triples parse failed: %s\n",
                 parsed.ToString().c_str());
    return nullptr;
  }
  const Clock::time_point t1 = Clock::now();
  sys->data.Finalize();
  const Clock::time_point t2 = Clock::now();
  sys->partitioning = std::make_unique<gstored::Partitioning>(
      gstored::HashPartitioner().Partition(sys->data, gen.spec.sites));
  const Clock::time_point t3 = Clock::now();
  gstored::EngineOptions options;
  options.num_threads = gen.spec.engine_slots;
  sys->engine = std::make_unique<gstored::DistributedEngine>(
      sys->partitioning.get(), options);
  const Clock::time_point t4 = Clock::now();
  if (gen.spec.front == Front::kServe) {
    gstored::serve::ServeOptions serve_options;  // caches + coalescing on
    serve_options.max_inflight = gen.spec.inflight;
    serve_options.total_slots = gen.spec.engine_slots;
    sys->server = std::make_unique<gstored::serve::ServingEngine>(
        sys->engine.get(), serve_options);
  }
  const Clock::time_point t5 = Clock::now();
  times->parse_ms = Millis(t1 - t0);
  times->finalize_ms = Millis(t2 - t1);
  times->partition_ms = Millis(t3 - t2);
  times->store_build_ms = Millis(t4 - t3);
  times->total_s = Seconds(t5 - t0);
  return sys;
}

// ---------------------------------------------------------------------------
// The answer oracle: centralized MatchQuery over the unpartitioned graph.
// ---------------------------------------------------------------------------

/// Fills `answers` with the binding hash of every distinct instance.
bool BuildOracle(const System& sys, const WorkloadSpec& spec,
                 std::vector<uint64_t>* answers) {
  gstored::LocalStore central(&sys.data.graph());
  answers->resize(spec.instances.size());
  for (size_t i = 0; i < spec.instances.size(); ++i) {
    gstored::Result<gstored::QueryGraph> q =
        gstored::ParseSparql(spec.instances[i]);
    if (!q.ok()) {
      std::fprintf(stderr, "instance %zu does not parse: %s\n", i,
                   q.status().ToString().c_str());
      return false;
    }
    std::vector<Binding> rows = gstored::MatchQuery(
        central, gstored::ResolveQuery(q.value(), sys.data.dict()));
    gstored::DedupBindings(&rows);
    (*answers)[i] = BindingsHash(rows);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

/// One completed request, kept to 16 bytes: a serving run completes
/// hundreds of thousands, and their storage must not show up in
/// peak_rss_mb.
struct Record {
  float latency_ms = 0;  ///< from before ParseSparql to completion
  float end_s = 0;       ///< completion, seconds since the loop started
  uint32_t instance = 0;
  uint8_t cls = 0;         ///< placement class (see ClassNames)
  bool executed = false;   ///< reached the engine (no result hit, not coalesced)
};

/// Reads the process's peak RSS once `after` requests have completed across
/// all clients.
struct RssProbe {
  size_t after = 0;
  std::atomic<size_t> completed{0};
  std::atomic<double> mb{-1.0};
};

/// One client's requests plus the totals that need no per-request storage.
struct ClientLog {
  std::vector<Record> records;
  size_t failed = 0;     ///< wrong answer, non-exact or cancelled
  double shipped_bytes = 0;  ///< candidate + LEC-feature + LPM bytes
  double queue_wait_ms = 0;  ///< latency - parse - QueryStats::total_time_ms
};

/// Placement classes: the query classes on a Run workload; on the serving
/// workload, result-cache hits form one class (their latency is parse +
/// lookup whatever the template) and each template's misses another.
std::vector<std::string> ClassNames(const WorkloadSpec& spec) {
  std::vector<std::string> names;
  if (spec.front == Front::kServe) names.push_back("hit");
  for (const QueryClass& c : spec.classes) {
    names.push_back(spec.front == Front::kServe ? c.name + "-miss" : c.name);
  }
  return names;
}

/// Parses `text` and evaluates it through the workload's front door:
/// DistributedEngine::Run, or ServingEngine::Submit on `lane` + Wait. With a
/// tracer, records a "request" root with spans around both steps. Returns
/// the outcome and sets the latency and the parse time.
QueryOutcome SendRequest(const System& sys, const std::string& text,
                         int lane, Tracer* tracer, uint32_t query,
                         double* latency_ms, double* parse_ms) {
  QueryOutcome outcome;
  const Clock::time_point t0 = Clock::now();
  int32_t root = -1, span = -1;
  if (tracer != nullptr) {
    root = tracer->Begin("request", -1, query);
    span = tracer->Begin("sparql.parse", root, query);
  }
  gstored::Result<gstored::QueryGraph> q = gstored::ParseSparql(text);
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) tracer->End(span);
  if (q.ok()) {
    if (tracer != nullptr) {
      span = tracer->Begin(sys.server ? "serve.submit_wait" : "engine.run",
                           root, query);
    }
    if (sys.server != nullptr) {
      gstored::serve::SubmitOptions options;
      options.lane = lane;
      outcome = sys.server->Submit(q.value(), options)->Wait();
    } else {
      outcome = sys.engine->Run(gstored::QueryRequest(q.value()));
    }
    if (tracer != nullptr) tracer->End(span);
  } else {
    outcome.exact = false;
  }
  if (tracer != nullptr) tracer->End(root);
  *latency_ms = Millis(Clock::now() - t0);
  *parse_ms = Millis(t1 - t0);
  return outcome;
}

/// Sends requests from `stream` until `deadline` or `limit` requests, and
/// checks each answer against the oracle. Query ids (for spans) start at
/// `query` and step by `query_step`.
void ClientLoop(const System& sys, const WorkloadSpec& spec,
                const std::vector<uint64_t>& oracle,
                InstanceStream* stream, int lane, Clock::time_point start,
                Clock::time_point deadline, size_t limit, Tracer* tracer,
                uint32_t query, uint32_t query_step, RssProbe* rss,
                ClientLog* log) {
  while (log->records.size() < limit && Clock::now() < deadline) {
    Record rec;
    rec.instance = static_cast<uint32_t>(stream->Next());
    double latency_ms = 0, parse_ms = 0;
    const QueryOutcome outcome =
        SendRequest(sys, spec.instances[rec.instance], lane, tracer, query,
                    &latency_ms, &parse_ms);
    query += query_step;
    rec.end_s = static_cast<float>(Seconds(Clock::now() - start));
    rec.latency_ms = static_cast<float>(latency_ms);
    const gstored::QueryStats& st = outcome.stats;
    rec.executed = !st.result_cache_hit && !st.coalesced_hit;
    const int cls = spec.instance_class[rec.instance];
    rec.cls = static_cast<uint8_t>(
        spec.front == Front::kServe ? (st.result_cache_hit ? 0 : cls + 1)
                                    : cls);
    log->records.push_back(rec);
    if (!outcome.exact || st.cancelled ||
        OutcomeHash(outcome.matches) != oracle[rec.instance]) {
      ++log->failed;
    }
    log->shipped_bytes += static_cast<double>(st.candidate_shipment_bytes +
                                              st.lec_shipment_bytes +
                                              st.lpm_shipment_bytes);
    log->queue_wait_ms += latency_ms - parse_ms - st.total_time_ms;
    if (rss != nullptr && rss->completed.fetch_add(1) + 1 == rss->after) {
      rss->mb = PeakRssMb();
    }
  }
}

/// Runs one closed-loop client per stream (lane = client index), all until
/// `deadline` or `limit` requests each, and returns every client's log.
std::vector<ClientLog> RunClients(
    const System& sys, const WorkloadSpec& spec,
    const std::vector<uint64_t>& oracle,
    std::vector<InstanceStream>& streams, double seconds, size_t limit,
    Tracer* tracer, RssProbe* rss = nullptr) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      seconds > 0 ? start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))
                  : Clock::time_point::max();
  const size_t clients = streams.size();
  std::vector<ClientLog> logs(clients);
  auto client = [&](size_t c) {
    // Query ids: client c sends c + 1, c + 1 + clients, ... (never 0).
    ClientLoop(sys, spec, oracle, &streams[c], static_cast<int>(c), start,
               deadline, limit, tracer, static_cast<uint32_t>(c + 1),
               static_cast<uint32_t>(clients), rss, &logs[c]);
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  return logs;
}

std::vector<InstanceStream> Streams(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<InstanceStream> streams;
  for (size_t c = 0; c < spec.clients; ++c) streams.emplace_back(spec, seed + c);
  return streams;
}

// ---------------------------------------------------------------------------
// Percentiles and the placement guard.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of ascending `sorted`.
template <typename T>
const T& NearestRank(const std::vector<T>& sorted, double pct) {
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double PercentileMs(std::vector<double> latencies, double pct) {
  std::sort(latencies.begin(), latencies.end());
  return NearestRank(latencies, pct);
}

/// Prints each class's share, median and cumulative boundaries (classes in
/// ascending median latency) and checks that every reported percentile lies
/// at least kPlacementMarginPts inside one class. Returns false when one
/// does not. The class of the request at the percentile's rank is printed
/// too; it may differ where two adjacent classes' latencies overlap, which
/// leaves the percentile a stable quantile of their fixed-share mixture.
bool PlacementGuard(const std::vector<Record>& records,
                    const std::vector<std::string>& names,
                    const std::vector<double>& percentiles) {
  const size_t k = names.size();
  std::vector<std::vector<double>> by_class(k);
  for (const Record& r : records) by_class[r.cls].push_back(r.latency_ms);
  std::vector<int> order;
  std::vector<double> medians(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    if (by_class[c].empty()) continue;
    order.push_back(static_cast<int>(c));
    medians[c] = Median(by_class[c]);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return medians[a] < medians[b]; });
  std::vector<double> lo(k, 0.0), hi(k, 0.0);
  double cum = 0.0;
  for (int c : order) {
    lo[c] = cum;
    cum += 100.0 * static_cast<double>(by_class[c].size()) /
           static_cast<double>(records.size());
    hi[c] = cum;
    std::printf(
        "{\"record\": \"class\", \"class\": \"%s\", \"requests\": %zu, "
        "\"share_pct\": %.2f, \"median_ms\": %.4f, \"cum_lo_pct\": %.2f, "
        "\"cum_hi_pct\": %.2f}\n",
        names[c].c_str(), by_class[c].size(), hi[c] - lo[c], medians[c],
        lo[c], hi[c]);
  }
  std::vector<const Record*> sorted;
  for (const Record& r : records) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(), [](const Record* a, const Record* b) {
    return a->latency_ms < b->latency_ms;
  });
  bool ok = true;
  for (double pct : percentiles) {
    const Record* at = NearestRank(sorted, pct);
    int home = order.back();
    for (int c : order) {
      if (pct >= lo[c] && pct < hi[c]) {
        home = c;
        break;
      }
    }
    // Only interior boundaries count: nothing lies below 0% or above 100%.
    const double below = lo[home] <= 0.0 ? 100.0 : pct - lo[home];
    const double above = hi[home] >= 99.999 ? 100.0 : hi[home] - pct;
    const double margin = std::min(below, above);
    const bool placed = margin >= kPlacementMarginPts;
    std::printf(
        "{\"record\": \"percentile\", \"pct\": %.0f, \"value_ms\": %.4f, "
        "\"class\": \"%s\", \"rank_class\": \"%s\", \"margin_pts\": %.2f, "
        "\"placed\": %s}\n",
        pct, at->latency_ms, names[home].c_str(), names[at->cls].c_str(),
        margin, placed ? "true" : "false");
    ok = ok && placed;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics.
// ---------------------------------------------------------------------------

int TimedRun(const Args& args, const System& sys, const WorkloadSpec& spec,
             const std::vector<uint64_t>& oracle, double setup_s) {
  const uint64_t stream_seed = StreamSeed(args.seed);
  // Warm-up: pool threads, heap growth and, when serving, the result cache
  // (filled to its steady hit share). Run workloads warm up on a separate
  // stream; serving clients continue theirs into the timed window.
  std::vector<InstanceStream> streams = Streams(spec, stream_seed);
  if (spec.front == Front::kRun) {
    std::vector<InstanceStream> warmup = Streams(spec, ~stream_seed);
    RunClients(sys, spec, oracle, warmup, 0, 2 * spec.block.size(), nullptr);
  } else {
    RunClients(sys, spec, oracle, streams, 0, kServeWarmupPerClient, nullptr);
  }

  RssProbe rss;
  rss.after = spec.rss_requests;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<ClientLog> logs =
      RunClients(sys, spec, oracle, streams, args.seconds,
                 static_cast<size_t>(-1), nullptr, &rss);
  const double wall_s = Seconds(Clock::now() - start);
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  std::vector<Record> records;
  size_t failed = 0;
  double shipped = 0;
  for (const ClientLog& log : logs) {
    records.insert(records.end(), log.records.begin(), log.records.end());
    failed += log.failed;
    shipped += log.shipped_bytes;
  }
  if (records.empty()) {
    std::fprintf(stderr, "no request completed\n");
    return 1;
  }
  if (!PlacementGuard(records, ClassNames(spec), {50.0, 90.0})) {
    std::fprintf(stderr,
                 "placement guard: a reported percentile lies within %.0f "
                 "points of a class boundary\n",
                 kPlacementMarginPts);
    return 3;
  }

  // Wall-clock metrics are medians over windows of the run, so that a burst
  // of interference confined to a minority of windows does not move them.
  // A window is a run of consecutive completions timed from the previous
  // window's last completion to its own. Windows hold whole mix blocks (a
  // single client completes its stream in order), so every window has the
  // exact class shares; the last one also takes the remainder.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.end_s < b.end_s; });
  const size_t n = records.size();
  const size_t windows = std::clamp<size_t>(
      static_cast<size_t>(std::floor(args.seconds / spec.window_s + 1e-9)), 1,
      n);
  const size_t block = spec.block.size();
  size_t per_window = n / windows / block * block;
  if (per_window == 0) per_window = (n + windows - 1) / windows;
  std::vector<double> qps, p50, p90;
  for (size_t first = 0; first < n; first += per_window) {
    const size_t last = first + 2 * per_window > n ? n : first + per_window;
    const double begin_s = first == 0 ? 0.0 : records[first - 1].end_s;
    std::vector<double> latency;
    for (size_t i = first; i < last; ++i) {
      latency.push_back(records[i].latency_ms);
    }
    qps.push_back(static_cast<double>(last - first) /
                  std::max(1e-9, records[last - 1].end_s - begin_s));
    p50.push_back(PercentileMs(latency, 50.0));
    p90.push_back(PercentileMs(latency, 90.0));
    if (last == n) break;
  }
  std::printf(
      "{\"record\": \"run\", \"requests\": %zu, \"windows\": %zu, "
      "\"wall_s\": %.3f, \"cpu_s\": %.3f}\n",
      records.size(), qps.size(), wall_s, cpu_s);

  const std::vector<Metric> metrics = {
      {"qps", Median(qps), "1/s"},
      {"latency_p50_ms", Median(p50), "ms"},
      {"latency_p90_ms", Median(p90), "ms"},
      {"cpu_ms_per_query", 1000.0 * cpu_s / static_cast<double>(n), "ms"},
      {"shipped_kb_per_query", shipped / 1000.0 / static_cast<double>(n),
       "kB"},
      {"peak_rss_mb", rss.mb >= 0 ? rss.mb.load() : PeakRssMb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
  PrintResult(failed == 0, records.size(), failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics.
// ---------------------------------------------------------------------------

/// Sums over the replayed instances, each weighted by how often the
/// workload's requests executed it.
struct LayerSums {
  double weight = 0;      ///< Σ w
  double query_ms = 0;    ///< Σ w · replay duration
  double covered_ms = 0;  ///< Σ w · part of the replay its spans cover
  std::map<std::string, double> self_ms;  ///< Σ w · self time per span name
  ReplayCounts counts;                    ///< Σ w · counts
  double stage_candidate_ms = 0, stage_partial_eval_ms = 0,
         stage_lec_prune_ms = 0, stage_assembly_ms = 0;
};

void AddWeighted(ReplayCounts* sum, const ReplayCounts& c, double w) {
  sum->exchange_bytes += w * c.exchange_bytes;
  sum->order_scorings += w * c.order_scorings;
  sum->match_rows += w * c.match_rows;
  sum->lpms += w * c.lpms;
  sum->features += w * c.features;
  sum->surviving_features += w * c.surviving_features;
  sum->lpms_shipped += w * c.lpms_shipped;
  sum->prune_join_attempts += w * c.prune_join_attempts;
  sum->feature_wire_bytes += w * c.feature_wire_bytes;
  sum->lpm_wire_bytes += w * c.lpm_wire_bytes;
  sum->assembly_join_attempts += w * c.assembly_join_attempts;
  sum->crossing_matches += w * c.crossing_matches;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Replays each (instance, weight) through the layer functions and through
/// an untimed Run, checks both against the oracle, and accumulates the
/// weighted sums. Replay roots get query ids from `first_query` upwards.
void ReplayInstances(const System& sys, const WorkloadSpec& spec,
                     const std::vector<uint64_t>& oracle,
                     const std::vector<std::pair<size_t, double>>& weighted,
                     uint32_t first_query, Tracer& tracer, LayerSums* sums,
                     size_t* attempted, size_t* failed) {
  gstored::SimulatedCluster cluster(sys.engine->num_sites());
  std::map<uint32_t, double> weight_of;
  uint32_t query = first_query;
  for (const auto& [idx, w] : weighted) {
    const std::string& text = spec.instances[idx];
    ReplayResult replay;
    {
      ScopedSpan root(tracer, "replay", -1, query);
      replay = ReplayPipeline(*sys.engine, cluster, text, spec.engine_slots,
                              tracer, root.id(), query);
    }
    QueryOutcome outcome;
    gstored::Result<gstored::QueryGraph> q = gstored::ParseSparql(text);
    if (q.ok()) outcome = sys.engine->Run(gstored::QueryRequest(q.value()));
    ++*attempted;
    const uint64_t expected = oracle[idx];
    if (!replay.ok || !q.ok() || !outcome.exact ||
        OutcomeHash(outcome.matches) != expected ||
        BindingsHash(replay.matches) != expected) {
      ++*failed;
    }
    weight_of[query] = w;
    sums->weight += w;
    AddWeighted(&sums->counts, replay.counts, w);
    sums->stage_candidate_ms += w * outcome.stats.candidate_time_ms;
    sums->stage_partial_eval_ms += w * outcome.stats.partial_eval_time_ms;
    sums->stage_lec_prune_ms += w * outcome.stats.lec_prune_time_ms;
    sums->stage_assembly_ms += w * outcome.stats.assembly_time_ms;
    ++query;
  }
  for (const auto& [q, root] : AccountRoots(tracer.spans())) {
    auto it = weight_of.find(q);
    if (it == weight_of.end()) continue;
    sums->query_ms += it->second * root.total_ms;
    sums->covered_ms += it->second * root.covered_ms;
    for (const auto& [name, ms] : root.self_ms) {
      sums->self_ms[name] += it->second * ms;
    }
  }
}

int TracedRun(const Args& args, const System& sys, const WorkloadSpec& spec,
              const std::vector<uint64_t>& oracle,
              const LoadTimes& load) {
  Tracer tracer;
  LayerSums sums;
  size_t attempted = 0, failed = 0;
  const uint64_t stream_seed = StreamSeed(args.seed);
  // The instances to replay, with how often the workload executed each.
  std::vector<std::pair<size_t, double>> weighted;
  std::unordered_map<size_t, size_t> position;
  auto count = [&](size_t idx) {
    auto [it, fresh] = position.emplace(idx, weighted.size());
    if (fresh) weighted.emplace_back(idx, 0.0);
    weighted[it->second].second += 1.0;
  };
  // Per-request denominators and the query time layer shares are taken of.
  double requests = 0, request_ms = 0, covered_ms = 0, parse_ms = 0;
  double queue_wait_ms = 0;
  gstored::serve::ServingEngine::Counters delta;

  if (spec.front == Front::kRun) {
    InstanceStream stream(spec, stream_seed);
    for (size_t i = 0; i < kTraceStreamLength; ++i) count(stream.Next());
  } else {
    // The serving stream itself runs traced: a "request" root per request
    // with spans around ParseSparql and Submit -> Wait.
    std::vector<InstanceStream> streams = Streams(spec, stream_seed);
    RunClients(sys, spec, oracle, streams, 0, kServeWarmupPerClient, nullptr);
    const auto before = sys.server->counters();
    std::vector<ClientLog> logs =
        RunClients(sys, spec, oracle, streams, args.seconds,
                   static_cast<size_t>(-1), &tracer);
    const auto after = sys.server->counters();
    delta.executed = after.executed - before.executed;
    delta.result_hits = after.result_hits - before.result_hits;
    delta.plan_hits = after.plan_hits - before.plan_hits;
    delta.plan_misses = after.plan_misses - before.plan_misses;
    delta.lpm_hits = after.lpm_hits - before.lpm_hits;
    for (const ClientLog& log : logs) {
      attempted += log.records.size();
      failed += log.failed;
      requests += static_cast<double>(log.records.size());
      queue_wait_ms += log.queue_wait_ms;
      for (const Record& r : log.records) {
        if (r.executed) count(r.instance);
      }
    }
    for (const auto& [q, root] : AccountRoots(tracer.spans())) {
      (void)q;
      request_ms += root.total_ms;
      covered_ms += root.covered_ms;
      auto it = root.self_ms.find("sparql.parse");
      if (it != root.self_ms.end()) parse_ms += it->second;
    }
  }

  // Replays follow the request roots in the span store; their ids lie above
  // every request id.
  ReplayInstances(sys, spec, oracle, weighted, 1u << 30, tracer, &sums,
                  &attempted, &failed);
  if (spec.front == Front::kRun) {
    requests = sums.weight;
    request_ms = sums.query_ms;
    covered_ms = sums.covered_ms;
    parse_ms = sums.self_ms["sparql.parse"];
  }

  const std::string path = args.trace_dir + "/trace-" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return 1;
  }
  if (attempted == 0) {
    std::fprintf(stderr, "nothing was replayed\n");
    return 1;
  }

  auto self = [&](const char* name) { return sums.self_ms[name]; };
  const ReplayCounts& c = sums.counts;
  const double q = requests;
  const std::vector<Metric> metrics = {
      {"load.parse_ms", load.parse_ms, "ms"},
      {"load.finalize_ms", load.finalize_ms, "ms"},
      {"load.partition_ms", load.partition_ms, "ms"},
      {"load.store_build_ms", load.store_build_ms, "ms"},
      {"load.crossing_edges",
       static_cast<double>(sys.partitioning->num_crossing_edges()), "count"},
      {"sparql.parse_us", 1000.0 * Ratio(parse_ms, q), "us"},
      {"serve.queue_wait_ms", Ratio(queue_wait_ms, q), "ms"},
      {"serve.result_hit_ratio",
       Ratio(static_cast<double>(delta.result_hits), q), "ratio"},
      {"serve.lpm_hit_ratio",
       Ratio(static_cast<double>(delta.lpm_hits),
             static_cast<double>(delta.executed * spec.sites)),
       "ratio"},
      {"serve.plan_hit_ratio",
       Ratio(static_cast<double>(delta.plan_hits),
             static_cast<double>(delta.plan_hits + delta.plan_misses)),
       "ratio"},
      {"serve.executed", static_cast<double>(delta.executed), "count"},
      {"exchange.ms", Ratio(self("exchange"), q), "ms"},
      {"exchange.kb", Ratio(c.exchange_bytes, q) / 1000.0, "kB"},
      {"plan.ms", Ratio(self("plan.site") + self("plan.unit"), q), "ms"},
      {"plan.order_scorings", Ratio(c.order_scorings, q), "count"},
      {"match.ms", Ratio(self("match"), q), "ms"},
      {"match.rows", Ratio(c.match_rows, q), "count"},
      {"lpm.enumerate_ms", Ratio(self("lpm.enumerate"), q), "ms"},
      {"lpm.count", Ratio(c.lpms, q), "count"},
      {"prune.features_ms", Ratio(self("prune.features"), q), "ms"},
      {"prune.join_ms", Ratio(self("prune.join"), q), "ms"},
      {"prune.join_attempts", Ratio(c.prune_join_attempts, q), "count"},
      {"prune.feature_survival", Ratio(c.surviving_features, c.features),
       "ratio"},
      {"prune.lpm_ship_ratio", Ratio(c.lpms_shipped, c.lpms), "ratio"},
      {"wire.codec_ms", Ratio(self("wire.codec"), q), "ms"},
      {"wire.feature_kb", Ratio(c.feature_wire_bytes, q) / 1000.0, "kB"},
      {"wire.lpm_kb", Ratio(c.lpm_wire_bytes, q) / 1000.0, "kB"},
      {"assembly.ms", Ratio(self("assembly"), q), "ms"},
      {"assembly.join_attempts", Ratio(c.assembly_join_attempts, q), "count"},
      {"assembly.yield", Ratio(c.crossing_matches, c.assembly_join_attempts),
       "ratio"},
      {"dedup.ms", Ratio(self("dedup"), q), "ms"},
      {"stage.candidate_ms", Ratio(sums.stage_candidate_ms, q), "ms"},
      {"stage.partial_eval_ms", Ratio(sums.stage_partial_eval_ms, q), "ms"},
      {"stage.lec_prune_ms", Ratio(sums.stage_lec_prune_ms, q), "ms"},
      {"stage.assembly_ms", Ratio(sums.stage_assembly_ms, q), "ms"},
      {"trace.coverage", Ratio(covered_ms, request_ms), "ratio"},
      {"trace.query_ms", Ratio(request_ms, q), "ms"},
      {"share.prune",
       Ratio(self("prune.features") + self("prune.join"), request_ms),
       "ratio"},
      {"share.assembly", Ratio(self("assembly"), request_ms), "ratio"},
  };
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload NAME --seed N --seconds "
                 "S [--trace 0|1] [--commit ID] [--trace-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Generated> gen = MakeWorkload(args.workload);
  if (gen == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = gen->spec;
  const int pinned_cpu = spec.one_cpu ? PinToOneCpu() : -1;
  if (spec.one_cpu && pinned_cpu < 0) {
    std::fprintf(stderr,
                 "warning: cannot restrict the process to one CPU; hand-offs "
                 "between threads will wake other CPUs\n");
  }
  PrintEnvironment(args, spec, gen->triples, pinned_cpu);

  // Set up kSetupReps times, keeping only the last system alive.
  std::vector<double> totals, parse, finalize, partition, store_build;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    LoadTimes t;
    sys = BuildSystem(*gen, &t);
    if (sys == nullptr) return 1;
    totals.push_back(t.total_s);
    parse.push_back(t.parse_ms);
    finalize.push_back(t.finalize_ms);
    partition.push_back(t.partition_ms);
    store_build.push_back(t.store_build_ms);
  }
  LoadTimes load;
  load.total_s = Median(totals);
  load.parse_ms = Median(parse);
  load.finalize_ms = Median(finalize);
  load.partition_ms = Median(partition);
  load.store_build_ms = Median(store_build);

  std::vector<uint64_t> oracle;
  if (!BuildOracle(*sys, spec, &oracle)) return 1;

  return args.trace ? TracedRun(args, *sys, spec, oracle, load)
                    : TimedRun(args, *sys, spec, oracle, load.total_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
