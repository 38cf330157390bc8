// Workload definitions of the end-to-end benchmark: the generated data (as
// N-Triples text), the space of distinct query instances, the per-class mix
// and the seeded instance stream a closed-loop client replays.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// The public entry a workload drives.
enum class Front { kRun, kServe };

/// One query class of the mix (a template, e.g. "LQ3"). Every instance of a
/// class is the template with one constant bound.
struct QueryClass {
  std::string name;
  /// Indices into WorkloadSpec::instances of this class's instances.
  std::vector<size_t> members;
  /// Draws one member position (an index into `members`).
  std::function<size_t(gstored::Rng&)> pick;
};

struct WorkloadSpec {
  std::string name;
  Front front = Front::kRun;
  /// SPARQL text of every distinct instance, and its class.
  std::vector<std::string> instances;
  std::vector<int> instance_class;
  std::vector<QueryClass> classes;
  /// One stratified block of the mix: the class of each slot. Every block
  /// is a seeded shuffle of this list, so the class shares of any stream
  /// prefix stay within one block of the target.
  std::vector<int> block;

  size_t engine_slots = 2;  ///< EngineOptions::num_threads / total_slots
  size_t inflight = 1;      ///< queries in flight at once
  size_t clients = 1;       ///< closed-loop client threads
  /// Runs the whole process on one CPU, so that every hand-off between the
  /// client, the dispatcher and the pool is a switch on that CPU rather than
  /// a wake-up of another (virtual) CPU, whose latency swings with the
  /// host's load.
  bool one_cpu = false;
  int sites = 4;
  /// Length of one measurement window; the end-to-end wall-clock metrics are
  /// medians over the windows of a run. Long enough for >= 100 requests, so
  /// a window's p90 has ten requests beyond it.
  double window_s = 5.0;
  /// peak_rss_mb is read once this many timed requests have completed (or
  /// at the end, if fewer did): the allocator's footprint grows with the
  /// number of requests served, so a fixed amount of work keeps it
  /// independent of the machine's speed.
  size_t rss_requests = 0;
  uint64_t data_seed = 0;
};

/// A workload with its data (as N-Triples text).
struct Generated {
  WorkloadSpec spec;
  std::string ntriples;
  size_t triples = 0;
};

/// Generates workload `name`. The data is the generator's default dataset
/// at the workload's scale and the serving mix's department popularity
/// ranking is drawn from the data seed, both fixed so that every --seed
/// measures the same graph and the same hot set; --seed varies only the
/// instance streams. Returns nullptr for an unknown name.
std::unique_ptr<Generated> MakeWorkload(const std::string& name);

/// The seeded instance stream of one client: block after block, each a
/// shuffle of WorkloadSpec::block, each slot an instance drawn by its
/// class's sampler. The same seed yields the same sequence.
class InstanceStream {
 public:
  InstanceStream(const WorkloadSpec& spec, uint64_t seed);

  /// Index into WorkloadSpec::instances of the next request.
  size_t Next();

 private:
  const WorkloadSpec* spec_;
  gstored::Rng rng_;
  std::vector<int> block_;
  size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
