// Inputs of one benchmark run, all derived from the workload name and the
// seed: the shared dataset (bench MakeDatabase, fixed dataset seed), the
// label-stripped query set and a pool of graphs outside the database for
// the write stream (both sampled from fixed seeds and permuted by the run's
// seed), and the single-process oracle (a naive scan that verifies every
// graph, independent of the index and filter) computed before the first
// request.
#ifndef PIS_PERFBENCH_INPUTS_H_
#define PIS_PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pis::perfbench {

enum class Workload { kEngineMix, kRouterQ16, kServerRw };

/// Everything that shapes a run; echoed in the run's context record.
struct RunConfig {
  Workload workload = Workload::kEngineMix;
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small dataset and query set: the self-test's quick mode.
  bool short_mode = false;
  /// Self-test hook: one oracle entry is deliberately wrong.
  bool corrupt_oracle = false;
  std::string out_dir = ".bench_run";

  int db_size = 1000;
  int num_shards = 2;
  double sigma = 2.0;
  std::vector<int> query_sizes;
  int queries_per_size = 0;
  /// Graphs of the write pool; each run writes each of them once (per
  /// writer pass under server_rw).
  int pool_size = 50;
  /// Clients: query connections (or threads, in-process) of the workload.
  int query_clients = 1;
  /// server_rw: one write (an add and the remove of what it added) every
  /// this many ms, open loop.
  int write_interval_ms = 200;
  /// Queries the traced run walks through every layer (a fixed prefix of
  /// the query set, so per-query counts repeat exactly).
  int trace_queries = 0;
  /// Q16 queries re-checked against the oracle once all writes are undone.
  int end_check_queries = 4;

  JsonValue ToJson() const;
};

inline JsonValue RunConfig::ToJson() const {
  JsonValue j = JsonValue::Object();
  j.Set("workload", workload_name);
  j.Set("seed", seed);
  j.Set("seconds", seconds);
  j.Set("trace", trace);
  j.Set("short_mode", short_mode);
  j.Set("db_size", db_size);
  j.Set("dataset_seed", static_cast<int64_t>(bench::WorkloadConfig{}.db_seed));
  j.Set("query_sampler_seed",
        static_cast<int64_t>(bench::WorkloadConfig{}.query_seed));
  j.Set("num_shards", num_shards);
  j.Set("sigma", sigma);
  JsonValue sizes = JsonValue::Array();
  for (int m : query_sizes) sizes.Push(m);
  j.Set("query_edges", std::move(sizes));
  j.Set("queries_per_size", queries_per_size);
  j.Set("query_labels", "stripped");
  j.Set("write_pool_graphs", pool_size);
  j.Set("query_clients", query_clients);
  return j;
}

/// \brief Inputs plus the oracle's answers.
struct Inputs {
  GraphDatabase db;
  std::vector<Graph> queries;
  /// Query edge count, parallel to `queries`.
  std::vector<int> query_edges;
  /// Pre-serialized `query` request line per query.
  std::vector<std::string> query_lines;
  /// Oracle answer set per query over the initial database.
  std::vector<std::vector<int>> oracle;
  /// Graphs outside the database that the write stream adds and removes.
  std::vector<Graph> pool;
  std::vector<std::string> pool_add_lines;
  /// pool_match[q][p]: pool graph p is an answer of query q.
  std::vector<std::vector<char>> pool_match;
};

/// \brief Log of the write stream's adds, used to judge answers read while
/// writes were in flight: an added graph is live in a snapshot of epoch E
/// exactly when add_epoch <= E < remove_epoch.
class WriteLog {
 public:
  void Added(int gid, int pool_index, uint64_t epoch) PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    adds_.push_back({gid, pool_index, epoch,
                     std::numeric_limits<uint64_t>::max()});
  }
  void Removed(int gid, uint64_t epoch) PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (Add& a : adds_) {
      if (a.gid == gid) a.remove_epoch = epoch;
    }
  }

  /// The exact answer set of query `q` in the snapshot of epoch `epoch`.
  std::vector<int> Expected(const Inputs& in, int q, uint64_t epoch) const
      PIS_EXCLUDES(mu_) {
    std::vector<int> expected = in.oracle[q];
    MutexLock lock(&mu_);
    for (const Add& a : adds_) {
      if (a.add_epoch <= epoch && epoch < a.remove_epoch &&
          in.pool_match[q][a.pool_index]) {
        expected.push_back(a.gid);
      }
    }
    std::sort(expected.begin(), expected.end());
    return expected;
  }

 private:
  struct Add {
    int gid;
    int pool_index;
    uint64_t add_epoch;
    uint64_t remove_epoch;
  };
  mutable Mutex mu_;
  std::vector<Add> adds_ PIS_GUARDED_BY(mu_);
};

}  // namespace pis::perfbench

#endif  // PIS_PERFBENCH_INPUTS_H_
