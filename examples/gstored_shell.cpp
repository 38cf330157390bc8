// gstored_shell: a small command-line front end for the library — load an
// N-Triples file (or a built-in generated workload), pick a partitioning
// strategy and site count, then run SPARQL queries (the compound subset:
// UNION / DISTINCT / LIMIT) from the command line or standard input.
//
// Usage:
//   gstored_shell --data FILE.nt|lubm|yago|btc [--sites N]
//                 [--strategy hash|semantic|metis|multilevel]
//                 [--mode basic|la|lo|full] [--threads N]
//                 [QUERY]
// With no QUERY argument, reads one query per line from stdin (';' also
// separates queries; a query left unterminated at end of input still runs).
// Prints the result rows. A malformed flag prints the usage and exits 2.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/compound_exec.h"
#include "core/engine.h"
#include "partition/multilevel.h"
#include "partition/partitioners.h"
#include "sparql/compound.h"
#include "workload/btc.h"
#include "workload/lubm.h"
#include "workload/yago.h"

namespace {

using namespace gstored;  // NOLINT — example brevity

constexpr char kUsage[] =
    "usage: %s --data FILE.nt|lubm|yago|btc [--sites N] "
    "[--strategy hash|semantic|metis|multilevel] "
    "[--mode basic|la|lo|full] [--threads N] [QUERY]\n";

/// Returns the partitioner named `name`, or nullptr for an unknown name.
std::unique_ptr<Partitioner> MakePartitioner(const std::string& name) {
  if (name == "hash") return std::make_unique<HashPartitioner>();
  if (name == "semantic") return std::make_unique<SemanticHashPartitioner>();
  if (name == "metis") return std::make_unique<MetisLikePartitioner>();
  if (name == "multilevel") return std::make_unique<MultilevelPartitioner>();
  return nullptr;
}

bool ParseMode(const std::string& name, EngineMode* mode) {
  if (name == "basic") *mode = EngineMode::kBasic;
  else if (name == "la") *mode = EngineMode::kLecAssembly;
  else if (name == "lo") *mode = EngineMode::kLecPruning;
  else if (name == "full") *mode = EngineMode::kFull;
  else return false;
  return true;
}

/// Every stage runs one thread per site, so the site count is capped.
constexpr size_t kMaxSites = 256;
constexpr size_t kMaxThreads = 4096;

/// Parses a whole decimal count in [1, max]; false on anything else.
bool ParseCount(const std::string& text, size_t max, size_t* out) {
  if (text.empty() || text.size() > 9 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  size_t value = std::stoul(text);
  if (value == 0 || value > max) return false;
  *out = value;
  return true;
}

void RunQuery(DistributedEngine& engine, const TermDict& dict,
              const std::string& text, EngineMode mode) {
  Result<CompoundQuery> query = ParseCompoundSparql(text);
  if (!query.ok()) {
    std::printf("parse error: %s\n", query.status().ToString().c_str());
    return;
  }
  CompoundResult result = ExecuteCompound(engine, *query, mode);
  for (size_t c = 0; c < result.columns.size(); ++c) {
    std::printf("%s%s", c ? "\t" : "", result.columns[c].c_str());
  }
  std::printf("\n");
  for (const auto& row : result.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%s", c ? "\t" : "",
                  row[c] == kNullTerm ? "UNBOUND" : dict.lexical(row[c]).c_str());
    }
    std::printf("\n");
  }
  std::printf("-- %zu row(s)\n", result.rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string data = "lubm";
  size_t sites = 6;
  size_t threads = 1;
  std::unique_ptr<Partitioner> partitioner = MakePartitioner("hash");
  EngineMode mode = EngineMode::kFull;
  std::string inline_query;
  auto usage_error = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    std::fprintf(stderr, kUsage, argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::printf(kUsage, argv[0]);
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!inline_query.empty()) return usage_error("more than one QUERY");
      inline_query = arg;
      continue;
    }
    if (arg != "--data" && arg != "--sites" && arg != "--threads" &&
        arg != "--strategy" && arg != "--mode") {
      return usage_error("unknown flag " + arg);
    }
    if (i + 1 >= argc) return usage_error(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--data") {
      data = value;
    } else if (arg == "--sites") {
      if (!ParseCount(value, kMaxSites, &sites)) {
        return usage_error("--sites wants a count in [1, " +
                           std::to_string(kMaxSites) + "], got '" + value +
                           "'");
      }
    } else if (arg == "--threads") {
      if (!ParseCount(value, kMaxThreads, &threads)) {
        return usage_error("--threads wants a count in [1, " +
                           std::to_string(kMaxThreads) + "], got '" + value +
                           "'");
      }
    } else if (arg == "--strategy") {
      partitioner = MakePartitioner(value);
      if (partitioner == nullptr) {
        return usage_error("unknown --strategy '" + value + "'");
      }
    } else if (!ParseMode(value, &mode)) {  // --mode
      return usage_error("unknown --mode '" + value + "'");
    }
  }

  // Load or generate the dataset.
  std::unique_ptr<Dataset> owned;
  Workload workload;
  if (data == "lubm") {
    workload = MakeLubmWorkload(LubmScale(1));
  } else if (data == "yago") {
    workload = MakeYagoWorkload(YagoConfig{});
  } else if (data == "btc") {
    workload = MakeBtcWorkload(BtcConfig{});
  } else {
    std::ifstream file(data);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", data.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    owned = std::make_unique<Dataset>();
    Status status = ParseNTriples(buffer.str(), owned.get());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    owned->Finalize();
    workload.dataset = std::move(owned);
    workload.name = data;
  }
  const Dataset& dataset = *workload.dataset;
  std::printf("loaded %s: %zu triples, %zu vertices\n", workload.name.c_str(),
              dataset.graph().num_triples(), dataset.graph().num_vertices());

  Partitioning partitioning =
      partitioner->Partition(dataset, static_cast<int>(sites));
  std::printf("%s partitioning over %zu sites: %zu crossing edges\n",
              partitioning.strategy_name().c_str(), sites,
              partitioning.num_crossing_edges());
  EngineOptions engine_options;
  engine_options.num_threads = threads;
  DistributedEngine engine(&partitioning, engine_options);

  if (!inline_query.empty()) {
    RunQuery(engine, dataset.dict(), inline_query, mode);
    return 0;
  }
  std::printf("enter SPARQL queries (one per line, ';' also separates; "
              "Ctrl-D to exit)\n> ");
  std::string line;
  std::string pending;
  while (std::getline(std::cin, line)) {
    pending += line;
    size_t semi;
    while ((semi = pending.find(';')) != std::string::npos) {
      std::string one = pending.substr(0, semi);
      pending = pending.substr(semi + 1);
      if (!one.empty()) RunQuery(engine, dataset.dict(), one, mode);
    }
    if (!pending.empty() && pending.find('{') != std::string::npos &&
        pending.rfind('}') != std::string::npos &&
        pending.rfind('}') > pending.find('{')) {
      RunQuery(engine, dataset.dict(), pending, mode);
      pending.clear();
    }
    std::printf("> ");
  }
  // A query still pending at end of input (no ';' and no closing brace yet)
  // runs anyway, so a malformed one reports its parse error.
  if (pending.find_first_not_of(" \t\r") != std::string::npos) {
    std::printf("\n");
    RunQuery(engine, dataset.dict(), pending, mode);
  }
  return 0;
}
