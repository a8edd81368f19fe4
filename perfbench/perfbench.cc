// pis_perfbench: the end-to-end benchmark of the three front doors.
//
//   pis_perfbench --workload engine_mix|router_q16|server_rw --seed N
//                 --seconds S --trace 0|1 [--short] [--corrupt_oracle]
//                 [--out_dir DIR]
//
// Workloads (see README.md for why each was chosen):
//   engine_mix  one thread calls EngineHost::Search in a closed loop over
//               a query set of one third each Q8, Q16 and Q24;
//   router_q16  two connections send Q16 `query` ops in a closed loop to a
//               RouterServer over a ClusterEngine fronting one PisServer
//               per shard;
//   server_rw   three connections send Q16 queries in a closed loop to a
//               PisServer with a WAL, background compaction and periodic
//               checkpoints, while a fourth sends a write (an add and the
//               remove of what it added) every 200 ms in an open loop.
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run: after an untraced quarter of the run, one client walks each
// query through every layer (walk.h) while the workload's other clients
// keep running, and the per-layer metrics are computed from the recorded
// spans, which are written to a JSON-lines file.
//
// Every answer is checked against a naive-scan oracle computed before the
// first request; a wrong answer is a failed operation. The last stdout
// line is one JSON object {"correct","attempted","failed","metrics"};
// the line before it records the run's inputs and settings.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "inputs.h"
#include "net.h"
#include "span_log.h"
#include "stack.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "walk.h"

namespace pis::perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Generator seed of the write pool (the dataset itself uses seed 42).
constexpr uint64_t kPoolSeed = 99;

/// One timed operation of a client. Reads of server_rw are judged after
/// the run (`deferred`), once the write log is complete.
struct Op {
  int query = -1;  ///< -1 for a write
  double sched_ms = 0;
  double send_ms = 0;
  double done_ms = 0;
  bool ok = false;
  bool deferred = false;
  uint64_t epoch = 0;
  std::vector<int> answers;

  double latency_ms() const { return done_ms - sched_ms; }
};

/// Ops and closed-loop send gaps of one client thread.
struct ClientLog {
  std::vector<Op> ops;
  std::vector<double> gaps_ms;
};

using QueryFn = std::function<Op(int query)>;

/// Percentile by linear interpolation between closest ranks; failed
/// operations enter as +inf so they sort above every latency.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void SleepUntil(double ms) {
  const double wait = ms - NowMs();
  if (wait > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait));
  }
}

/// \brief Hands query indexes to the closed-loop clients of one phase.
///
/// With `whole_passes`, the clock running out ends the phase only at the
/// end of a pass over the query set (and not while `*hold` is true), so
/// every run measures each query equally often and its percentiles do not
/// depend on where in the set the deadline fell.
class QueryDispenser {
 public:
  QueryDispenser(int num_queries, double deadline_ms, bool whole_passes,
                 const std::atomic<bool>* hold)
      : num_queries_(num_queries),
        deadline_ms_(deadline_ms),
        whole_passes_(whole_passes),
        hold_(hold) {}

  /// The next query index, or -1 when the phase is over.
  int Next() PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (stopped_) return -1;
    const bool at_boundary = !whole_passes_ || next_ % num_queries_ == 0;
    const bool held = hold_ != nullptr && hold_->load();
    if (at_boundary && NowMs() >= deadline_ms_ && !held) {
      stopped_ = true;
      return -1;
    }
    return next_++ % num_queries_;
  }

 private:
  const int num_queries_;
  const double deadline_ms_;
  const bool whole_passes_;
  const std::atomic<bool>* hold_;
  Mutex mu_;
  int next_ PIS_GUARDED_BY(mu_) = 0;
  bool stopped_ PIS_GUARDED_BY(mu_) = false;
};

/// Closed loop: the next query leaves when the previous reply is in.
void ClosedLoop(QueryDispenser* dispenser, const QueryFn& fn, ClientLog* log) {
  double prev_done = -1;
  for (int q = dispenser->Next(); q >= 0; q = dispenser->Next()) {
    const double send = NowMs();
    if (prev_done >= 0) log->gaps_ms.push_back(send - prev_done);
    Op op = fn(q);
    op.query = q;
    op.sched_ms = op.send_ms = send;
    op.done_ms = prev_done = NowMs();
    log->ops.push_back(std::move(op));
  }
}

class Bench {
 public:
  explicit Bench(RunConfig cfg) : cfg_(std::move(cfg)) {}

  /// Runs set-up, the workload and the checks; prints the two result
  /// lines. A non-OK status means no result (exit code 1).
  Status Run() {
    PIS_RETURN_NOT_OK(SetUp());
    if (cfg_.trace) {
      PIS_RETURN_NOT_OK(RunTraced());
    } else {
      PIS_RETURN_NOT_OK(RunUntraced());
    }
    PIS_RETURN_NOT_OK(EndCheck());
    Print();
    return Status::OK();
  }

 private:
  // ------------------------------------------------------------ set-up
  Status SetUp() {
    bench::WorkloadConfig wc;
    wc.db_size = cfg_.db_size;
    const double t0 = NowMs();
    in_.db = bench::MakeDatabase(wc);
    PIS_ASSIGN_OR_RETURN(std::vector<Graph> features,
                         bench::MineFeatures(in_.db, wc));
    FragmentIndexOptions iopt;
    iopt.min_fragment_edges = wc.min_fragment_edges;
    iopt.max_fragment_edges = wc.max_fragment_edges;
    iopt.spec = DistanceSpec::EdgeMutation();
    iopt.num_threads = HardwareThreads();
    PIS_ASSIGN_OR_RETURN(ShardedFragmentIndex index,
                         ShardedFragmentIndex::Build(in_.db, features, iopt,
                                                     cfg_.num_shards));
    const double build_ms = NowMs() - t0;

    PIS_RETURN_NOT_OK(MakeQueriesAndOracle(wc, iopt.spec));

    const double t1 = NowMs();
    PIS_RETURN_NOT_OK(StartComponents(index));
    setup_s_ = (build_ms + NowMs() - t1) / 1e3;
    return Status::OK();
  }

  Status MakeQueriesAndOracle(bench::WorkloadConfig wc,
                              const DistanceSpec& spec) {
    // The query set and the write pool are sampled from fixed seeds and
    // --seed permutes them: which queries a client takes in which order,
    // and which pool graph the writer adds when. Query cost varies ~10x
    // within one size, so independently sampled sets of the size one run
    // affords move the medians by more than any bound worth having.
    std::mt19937_64 rng(static_cast<uint64_t>(cfg_.seed));
    wc.queries_per_set = cfg_.queries_per_size;
    std::vector<std::vector<Graph>> sets;
    for (int m : cfg_.query_sizes) {
      wc.query_seed = bench::WorkloadConfig{}.query_seed + m;
      PIS_ASSIGN_OR_RETURN(std::vector<Graph> set,
                           bench::SampleQueries(in_.db, m, wc));
      std::shuffle(set.begin(), set.end(), rng);
      sets.push_back(std::move(set));
    }
    // Interleaved by size, so any prefix of the set is an even mix.
    for (int i = 0; i < cfg_.queries_per_size; ++i) {
      for (size_t k = 0; k < sets.size(); ++k) {
        in_.queries.push_back(sets[k][i]);
        in_.query_edges.push_back(cfg_.query_sizes[k]);
      }
    }
    MoleculeGeneratorOptions gopt;
    gopt.seed = kPoolSeed;
    GraphDatabase pool = MoleculeGenerator(gopt).Generate(cfg_.pool_size);
    in_.pool = pool.graphs();
    std::shuffle(in_.pool.begin(), in_.pool.end(), rng);
    pool = GraphDatabase();
    for (const Graph& g : in_.pool) pool.Add(g);

    for (const Graph& q : in_.queries) {
      JsonValue req = JsonValue::Object();
      req.Set("op", "query");
      req.Set("graph", FormatGraph(q, 0));
      in_.query_lines.push_back(req.Serialize());
      in_.oracle.push_back(NaiveSearch(in_.db, q, spec, cfg_.sigma).answers);
      std::vector<char> match(in_.pool.size(), 0);
      for (int p : NaiveSearch(pool, q, spec, cfg_.sigma).answers) match[p] = 1;
      in_.pool_match.push_back(std::move(match));
    }
    for (const Graph& g : in_.pool) {
      JsonValue req = JsonValue::Object();
      req.Set("op", "add");
      req.Set("graph", FormatGraph(g, 0));
      in_.pool_add_lines.push_back(req.Serialize());
    }
    if (cfg_.corrupt_oracle) {
      std::vector<int>& entry = in_.oracle[0];
      if (entry.empty()) {
        entry.push_back(0);
      } else {
        entry.erase(entry.begin());
      }
    }
    return Status::OK();
  }

  Status StartComponents(const ShardedFragmentIndex& index) {
    const bool rw = cfg_.workload == Workload::kServerRw;
    if (rw) {
      run_dir_ = cfg_.out_dir + "/" + cfg_.workload_name + "-" +
                 std::to_string(cfg_.seed) + "-" +
                 std::to_string(static_cast<long>(getpid()));
      std::filesystem::remove_all(run_dir_);
      std::filesystem::create_directories(run_dir_);
      durability_.wal_dir = run_dir_ + "/wal";
      durability_.checkpoint_index_dir = run_dir_ + "/index";
      durability_.checkpoint_db_path = run_dir_ + "/db.txt";
    }
    if (cfg_.workload != Workload::kRouterQ16) {
      PIS_RETURN_NOT_OK(stack_.StartMain(in_.db, index, /*serve=*/rw,
                                         rw ? &durability_ : nullptr));
    }
    if (cfg_.workload == Workload::kRouterQ16 || cfg_.trace) {
      PIS_RETURN_NOT_OK(stack_.StartRouterFabric(in_.db, index));
    }
    return Status::OK();
  }

  /// The hosts whose HostStats deltas the host.* metrics report: those
  /// behind the workload's front door.
  std::vector<const EngineHost*> FrontDoorHosts() const {
    if (cfg_.workload == Workload::kRouterQ16) {
      std::vector<const EngineHost*> hosts;
      for (const auto& s : stack_.shards) hosts.push_back(s->host.get());
      return hosts;
    }
    return {stack_.main->host.get()};
  }

  // ------------------------------------------------------------ clients
  /// Opens the workload's query connections (none for engine_mix).
  Status OpenClients() {
    for (int c = 0; c < cfg_.query_clients; ++c) {
      if (cfg_.workload == Workload::kEngineMix) break;
      const bool router = cfg_.workload == Workload::kRouterQ16;
      PIS_ASSIGN_OR_RETURN(
          std::unique_ptr<LineClient> client,
          LineClient::Open(&stack_.ledger,
                           router ? stack_.router_ledger_id
                                  : stack_.main->ledger_id,
                           router ? stack_.router->port()
                                  : stack_.main->server->port()));
      clients_.push_back(std::move(client));
    }
    if (cfg_.workload == Workload::kServerRw) {
      PIS_ASSIGN_OR_RETURN(writer_,
                           LineClient::Open(&stack_.ledger,
                                            stack_.main->ledger_id,
                                            stack_.main->server->port()));
    }
    return Status::OK();
  }

  QueryFn MakeQueryFn(int client) {
    if (cfg_.workload == Workload::kEngineMix) {
      return [this](int q) {
        Op op;
        Result<SearchResult> r = stack_.main->host->Search(in_.queries[q]);
        op.ok = r.ok() && r.value().answers == in_.oracle[q];
        return op;
      };
    }
    LineClient* conn = clients_[client].get();
    const bool deferred = cfg_.workload == Workload::kServerRw;
    return [this, conn, deferred](int q) {
      Op op;
      Result<JsonValue> reply = conn->Call(in_.query_lines[q]);
      if (!reply.ok()) return op;
      Result<std::vector<int>> answers = ReplyAnswers(reply.value());
      if (!answers.ok()) return op;
      if (deferred) {
        op.ok = true;
        op.deferred = true;
        op.epoch = static_cast<uint64_t>(reply.value().GetNumberOr("epoch", 0));
        op.answers = answers.MoveValue();
      } else {
        op.ok = answers.value() == in_.oracle[q];
      }
      return op;
    };
  }

  /// server_rw's writer: one write every write_interval_ms from
  /// `start_ms`, open loop. Past `deadline_ms` it stops at the end of a
  /// pass over the pool, so every run adds each pool graph equally often.
  /// Latency counts from each write's scheduled time.
  void OpenLoopWriter(double start_ms, double deadline_ms) {
    for (int k = 0;; ++k) {
      const double sched = start_ms + k * cfg_.write_interval_ms;
      if (sched >= deadline_ms && k % cfg_.pool_size == 0) break;
      SleepUntil(sched);
      Op op;
      op.sched_ms = sched;
      op.send_ms = NowMs();
      op.ok = WritePair(k % cfg_.pool_size);
      op.done_ms = NowMs();
      writer_log_.ops.push_back(std::move(op));
    }
    writer_running_ = false;
  }

  /// engine_mix and router_q16: one closed-loop pass of writes over the
  /// pool through the workload's front door, after its read phase, so the
  /// write metrics exist for every front door while its reads see none.
  void WriteProbe() {
    for (int p = 0; p < cfg_.pool_size; ++p) {
      Op op;
      op.sched_ms = op.send_ms = NowMs();
      op.ok = WritePair(p);
      op.done_ms = NowMs();
      writer_log_.ops.push_back(std::move(op));
    }
  }

  /// One write: the add of pool graph `p` and, back to back, the remove of
  /// the graph it became, so the live set returns to where it was. Adds
  /// cost 20-230 ms by graph and removes ~18 ms; timing the pair keeps the
  /// write percentiles off the boundary between the two.
  bool WritePair(int p) {
    const double wal_before = cfg_.trace ? WalBytes() : 0;
    bool ok = false;
    if (cfg_.workload == Workload::kEngineMix) {
      EngineHost* host = stack_.main->host.get();
      Result<int> gid = host->AddGraph(in_.pool[p]);
      ok = gid.ok() && host->RemoveGraph(gid.value()).ok();
    } else {
      LineClient* conn = cfg_.workload == Workload::kServerRw
                             ? writer_.get()
                             : clients_[0].get();
      Result<JsonValue> added = conn->Call(in_.pool_add_lines[p]);
      if (!added.ok()) return false;
      const int gid = static_cast<int>(added.value().GetNumberOr("id", -1));
      writes_.Added(gid, p, static_cast<uint64_t>(
                                added.value().GetNumberOr("epoch", 0)));
      JsonValue req = JsonValue::Object();
      req.Set("op", "remove");
      req.Set("id", gid);
      Result<JsonValue> removed = conn->Call(req.Serialize());
      if (!removed.ok()) return false;
      writes_.Removed(gid, static_cast<uint64_t>(
                               removed.value().GetNumberOr("epoch", 0)));
      ok = gid >= 0;
    }
    const double wal_after = cfg_.trace ? WalBytes() : 0;
    // A checkpoint truncates the log; such a write's size is unknown.
    if (ok && wal_after > wal_before) {
      wal_bytes_per_write_.push_back(wal_after - wal_before);
    }
    return ok;
  }

  double WalBytes() const {
    if (cfg_.workload != Workload::kServerRw) return 0;
    return static_cast<double>(stack_.main->host->Stats().wal_bytes);
  }

  /// Runs the query clients until `deadline_ms` (in whole passes over the
  /// query set with `whole_passes`, and while server_rw's writer runs).
  /// With a walker, client 0's place is taken by `walker_fn`.
  void RunPhase(double deadline_ms, bool whole_passes,
                std::vector<ClientLog>* logs,
                const std::function<void()>& walker_fn) {
    QueryDispenser dispenser(static_cast<int>(in_.queries.size()), deadline_ms,
                             whole_passes,
                             whole_passes ? &writer_running_ : nullptr);
    logs->assign(cfg_.query_clients, ClientLog{});
    std::vector<std::thread> threads;
    for (int c = 0; c < cfg_.query_clients; ++c) {
      if (c == 0 && walker_fn) {
        threads.emplace_back(walker_fn);
        continue;
      }
      threads.emplace_back([this, c, logs, &dispenser] {
        ClosedLoop(&dispenser, MakeQueryFn(c), &(*logs)[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  void Warmup() {
    for (int c = 0; c < cfg_.query_clients; ++c) {
      MakeQueryFn(c)(c % static_cast<int>(in_.queries.size()));
    }
  }

  void CollectHostStatsBefore() {
    for (const EngineHost* h : FrontDoorHosts()) {
      host_before_.push_back(h->Stats());
    }
  }

  // ------------------------------------------------------------ untraced
  Status RunUntraced() {
    PIS_RETURN_NOT_OK(OpenClients());
    Warmup();
    const double start = NowMs();
    const double deadline = start + cfg_.seconds * 1e3;
    std::thread writer;
    if (cfg_.workload == Workload::kServerRw) {
      writer_running_ = true;
      writer = std::thread([this, start, deadline] {
        OpenLoopWriter(start, deadline);
      });
    }
    RunPhase(deadline, /*whole_passes=*/true, &query_logs_, nullptr);
    query_phase_s_ = (NowMs() - start) / 1e3;
    if (writer.joinable()) writer.join();
    if (cfg_.workload != Workload::kServerRw) WriteProbe();
    return Status::OK();
  }

  // ------------------------------------------------------------ traced
  Status RunTraced() {
    PIS_RETURN_NOT_OK(OpenClients());
    // The walker's router connection (router_q16 reuses client 0's).
    std::unique_ptr<LineClient> own_router;
    LineClient* router_client = nullptr;
    if (cfg_.workload == Workload::kRouterQ16) {
      router_client = clients_[0].get();
    } else {
      PIS_ASSIGN_OR_RETURN(own_router,
                           LineClient::Open(&stack_.ledger,
                                            stack_.router_ledger_id,
                                            stack_.router->port()));
      router_client = own_router.get();
    }
    const bool rw = cfg_.workload == Workload::kServerRw;
    // The core layers run on the set-up snapshot of a whole-index host;
    // server_rtt targets the workload's own server under server_rw and
    // shard server 0 (which holds the whole host) otherwise.
    const EngineHost* core_host = cfg_.workload == Workload::kRouterQ16
                                      ? stack_.shards[0]->host.get()
                                      : stack_.main->host.get();
    ServerProc* probe_server = rw ? stack_.main.get() : stack_.shards[0].get();
    Walker walker(cfg_, in_, &stack_, &spans_, core_host->snapshot(),
                  core_host, probe_server->server->port(),
                  probe_server->ledger_id, rw ? clients_[0].get() : nullptr,
                  router_client);

    Warmup();
    CollectHostStatsBefore();
    const double start = NowMs();
    const double untraced_end = start + 0.25 * cfg_.seconds * 1e3;
    const double deadline = start + cfg_.seconds * 1e3;
    std::thread writer;
    if (rw) {
      writer_running_ = true;
      writer = std::thread([this, start, deadline] {
        OpenLoopWriter(start, deadline);
      });
    }
    // Untraced quarter: the baseline of trace.overhead_frac.
    RunPhase(untraced_end, /*whole_passes=*/false, &untraced_logs_, nullptr);

    Status walk_status = walker.Start();
    if (walk_status.ok()) {
      auto walk_loop = [&] {
        const int k = std::min<int>(cfg_.trace_queries,
                                    static_cast<int>(in_.queries.size()));
        for (int n = 0; n < k || NowMs() < deadline; ++n) {
          const int q = n % k;
          WalkCounts counts;
          std::vector<WalkCheck> checks;
          const std::string trace_id = "walk-" + std::to_string(n);
          Status st = walker.Walk(q, trace_id, &counts, &checks);
          for (WalkCheck& c : checks) walk_checks_.push_back(std::move(c));
          if (!st.ok()) {
            walk_checks_.push_back(
                WalkCheck::Now("walk " + st.ToString(), false));
            continue;
          }
          walk_queries_.push_back(q);
          walk_trace_ids_.push_back(trace_id);
          if (n < k) first_pass_counts_.push_back(counts);
        }
      };
      RunPhase(deadline, /*whole_passes=*/false, &query_logs_, walk_loop);
      walker.Stop();
    }
    query_phase_s_ = (NowMs() - start) / 1e3;
    if (writer.joinable()) writer.join();
    PIS_RETURN_NOT_OK(walk_status);
    if (!rw) WriteProbe();
    return Status::OK();
  }

  // ------------------------------------------------------------ checks
  /// Judges server_rw's deferred reads against the complete write log,
  /// then checks that all writes were undone: the live count is back to
  /// the initial count and the first Q16 queries answer exactly as the
  /// oracle (graph ids never move).
  Status EndCheck() {
    for (std::vector<ClientLog>* logs : {&untraced_logs_, &query_logs_}) {
      for (ClientLog& log : *logs) {
        for (Op& op : log.ops) {
          if (!op.deferred || !op.ok) continue;
          op.ok = op.answers == writes_.Expected(in_, op.query, op.epoch);
        }
      }
    }
    for (WalkCheck& c : walk_checks_) {
      if (c.deferred) {
        c.ok = c.answers == writes_.Expected(in_, c.query, c.epoch);
      }
      if (!c.ok) {
        std::fprintf(stderr, "walk check failed: %s (query %d)\n",
                     c.what.c_str(), c.query);
      }
    }
    int live = 0;
    if (cfg_.workload == Workload::kRouterQ16) {
      live = stack_.cluster->Stats().live;
    } else {
      live = stack_.main->host->Stats().live;
    }
    ++end_attempted_;
    if (live != cfg_.db_size) {
      ++end_failed_;
      std::fprintf(stderr, "end check: %d live graphs, expected %d\n", live,
                   cfg_.db_size);
    }
    int checked = 0;
    for (size_t q = 0;
         q < in_.queries.size() && checked < cfg_.end_check_queries; ++q) {
      if (in_.query_edges[q] != 16) continue;
      ++checked;
      ++end_attempted_;
      std::vector<int> answers;
      if (cfg_.workload == Workload::kEngineMix) {
        Result<SearchResult> r = stack_.main->host->Search(in_.queries[q]);
        if (r.ok()) answers = r.value().answers;
      } else {
        Result<JsonValue> reply = clients_[0]->Call(in_.query_lines[q]);
        if (reply.ok()) {
          Result<std::vector<int>> a = ReplyAnswers(reply.value());
          if (a.ok()) answers = a.MoveValue();
        }
      }
      if (answers != in_.oracle[q]) {
        ++end_failed_;
        std::fprintf(stderr, "end check: query %zu differs from oracle\n", q);
      }
    }
    return Status::OK();
  }

  // ------------------------------------------------------------ output
  struct Totals {
    int attempted = 0;
    int failed = 0;
  };

  Totals CountOps() const {
    Totals t;
    auto add = [&t](const std::vector<Op>& ops) {
      for (const Op& op : ops) {
        ++t.attempted;
        if (!op.ok) ++t.failed;
      }
    };
    for (const ClientLog& log : untraced_logs_) add(log.ops);
    for (const ClientLog& log : query_logs_) add(log.ops);
    add(writer_log_.ops);
    for (const WalkCheck& c : walk_checks_) {
      ++t.attempted;
      if (!c.ok) ++t.failed;
    }
    t.attempted += end_attempted_;
    t.failed += end_failed_;
    return t;
  }

  static std::vector<double> Latencies(const std::vector<Op>& ops) {
    std::vector<double> out;
    for (const Op& op : ops) out.push_back(op.ok ? op.latency_ms() : kInf);
    return out;
  }

  /// A percentile that landed on a failed op reports the whole run's
  /// length: finite for JSON, and worse than any completed op.
  double Finite(double v) const {
    return std::isinf(v) ? query_phase_s_ * 1e3 + 1 : v;
  }

  void SetMetric(JsonValue* metrics, const std::string& name, double value,
                 const char* unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", value);
    m.Set("unit", unit);
    metrics->Set(name, std::move(m));
  }

  void EndToEndMetrics(JsonValue* metrics, JsonValue* context) {
    std::vector<Op> reads;
    for (const ClientLog& log : query_logs_) {
      reads.insert(reads.end(), log.ops.begin(), log.ops.end());
    }
    const std::vector<double> lat = Latencies(reads);
    const std::vector<double> wlat = Latencies(writer_log_.ops);
    size_t completed = 0;
    for (const Op& op : reads) completed += op.ok ? 1 : 0;
    SetMetric(metrics, "query_p50_ms", Finite(Percentile(lat, 0.50)), "ms");
    SetMetric(metrics, "query_p90_ms", Finite(Percentile(lat, 0.90)), "ms");
    SetMetric(metrics, "query_qps",
              static_cast<double>(completed) / query_phase_s_, "1/s");
    SetMetric(metrics, "write_p50_ms", Finite(Percentile(wlat, 0.50)), "ms");
    SetMetric(metrics, "write_p90_ms", Finite(Percentile(wlat, 0.90)), "ms");
    SetMetric(metrics, "setup_s", setup_s_, "s");
    SetMetric(metrics, "rss_mb", PeakRssMb(), "MB");
    context->Set("query_samples", static_cast<int64_t>(reads.size()));
    context->Set("write_samples",
                 static_cast<int64_t>(writer_log_.ops.size()));
  }

  void PerLayerMetrics(JsonValue* metrics, JsonValue* context);

  void Print() {
    JsonValue context = cfg_.ToJson();
    context.Set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    context.Set("server_workers", PisServerOptions{}.num_workers);
    context.Set("peak_connections", stack_.ledger.PeaksJson());
    switch (cfg_.workload) {
      case Workload::kEngineMix:
        context.Set("clients", "1 in-process thread, closed loop");
        context.Set("writes", "closed-loop probe after the read phase");
        break;
      case Workload::kRouterQ16:
        context.Set("clients", "2 router connections, closed loop");
        context.Set("writes", "closed-loop probe after the read phase");
        break;
      case Workload::kServerRw:
        context.Set("clients",
                    "3 query connections closed loop + 1 write connection "
                    "open loop");
        context.Set("write_interval_ms", cfg_.write_interval_ms);
        context.Set("flush_policy", "fsync per group-commit batch");
        context.Set("compact_dead_ratio", durability_.compact_dead_ratio);
        context.Set("compact_interval_ms", durability_.compact_interval_ms);
        context.Set("checkpoint_interval_ms",
                    durability_.checkpoint_interval_ms);
        break;
    }
    JsonValue metrics = JsonValue::Object();
    if (cfg_.trace) {
      PerLayerMetrics(&metrics, &context);
    } else {
      EndToEndMetrics(&metrics, &context);
    }
    const Totals totals = CountOps();
    JsonValue ctx_line = JsonValue::Object();
    ctx_line.Set("context", std::move(context));
    std::printf("%s\n", ctx_line.Serialize().c_str());
    JsonValue result = JsonValue::Object();
    result.Set("correct", totals.failed == 0);
    result.Set("attempted", totals.attempted);
    result.Set("failed", totals.failed);
    result.Set("metrics", std::move(metrics));
    std::printf("%s\n", result.Serialize().c_str());
    std::fflush(stdout);
  }

 public:
  /// Removes the run's WAL and checkpoint files (the span file stays).
  void CleanUp() {
    if (!run_dir_.empty()) std::filesystem::remove_all(run_dir_);
  }

 private:
  RunConfig cfg_;
  Inputs in_;
  Stack stack_;
  SpanLog spans_;
  WriteLog writes_;
  DurabilityConfig durability_;
  std::string run_dir_;
  double setup_s_ = 0;
  double query_phase_s_ = 0;

  std::vector<std::unique_ptr<LineClient>> clients_;
  std::unique_ptr<LineClient> writer_;
  /// True while server_rw's writer runs; the readers keep going until then.
  std::atomic<bool> writer_running_{false};
  std::vector<ClientLog> query_logs_;
  std::vector<ClientLog> untraced_logs_;
  ClientLog writer_log_;
  std::vector<double> wal_bytes_per_write_;
  std::vector<EngineHost::HostStats> host_before_;

  std::vector<int> walk_queries_;
  std::vector<std::string> walk_trace_ids_;
  std::vector<WalkCounts> first_pass_counts_;
  std::vector<WalkCheck> walk_checks_;
  int end_attempted_ = 0;
  int end_failed_ = 0;
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

void Bench::PerLayerMetrics(JsonValue* metrics, JsonValue* context) {
  const std::vector<Span> spans = spans_.Snapshot();
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::vector<size_t>> by_trace;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_trace[spans[i].trace_id].push_back(i);
  }

  // Per walk: span durations summed by name (prefix for per-endpoint and
  // per-shard names), the root's self time, the round-1 fan-out shape.
  struct WalkTimes {
    std::map<std::string, double> dur;
    double root = 0;
    double root_self = 0;
    double cluster_self = 0;
    double round1_sum = 0;
    double round1_wall = 0;
  };
  const std::vector<std::string> prefixes = {
      "shard_query_compute", "encode", "decode", "shard_query:",
      "shard_verify:", "replay:"};
  std::vector<WalkTimes> walks;
  for (const std::string& id : walk_trace_ids_) {
    WalkTimes w;
    double r1_lo = kInf;
    double r1_hi = -kInf;
    for (size_t i : by_trace[id]) {
      const Span& s = spans[i];
      std::string key = s.name;
      for (const std::string& p : prefixes) {
        if (StartsWith(s.name, p)) key = p;
      }
      w.dur[key] += s.dur_ms();
      if (s.name == "query") {
        w.root = s.dur_ms();
        w.root_self = self[i];
      }
      if (s.name == "cluster_search") w.cluster_self = self[i];
      if (key == "shard_query:") {
        w.round1_sum += s.dur_ms();
        r1_lo = std::min(r1_lo, s.start_ms);
        r1_hi = std::max(r1_hi, s.end_ms);
      }
    }
    w.round1_wall = r1_hi > r1_lo ? r1_hi - r1_lo : 0;
    walks.push_back(std::move(w));
  }
  auto mean_of = [&walks](const std::function<double(const WalkTimes&)>& f) {
    std::vector<double> v;
    for (const WalkTimes& w : walks) v.push_back(f(w));
    return Mean(v);
  };
  auto d = [](const WalkTimes& w, const std::string& name) {
    auto it = w.dur.find(name);
    return it == w.dur.end() ? 0.0 : it->second;
  };
  auto count_mean = [this](double WalkCounts::*field) {
    std::vector<double> v;
    for (const WalkCounts& c : first_pass_counts_) v.push_back(c.*field);
    return Mean(v);
  };

  const double enumerate = mean_of([&](auto& w) { return d(w, "enumerate"); });
  const double probe = mean_of([&](auto& w) { return d(w, "range_queries"); });
  const double filter = mean_of([&](auto& w) { return d(w, "filter"); });
  SetMetric(metrics, "core.enumerate_ms", enumerate, "ms");
  SetMetric(metrics, "core.fragments", count_mean(&WalkCounts::fragments),
            "count");
  double frags = 0, distinct = 0, cands = 0, answers = 0;
  for (const WalkCounts& c : first_pass_counts_) {
    frags += c.fragments;
    distinct += c.distinct;
    cands += c.candidates;
    answers += c.answers;
  }
  SetMetric(metrics, "core.distinct_frac", frags > 0 ? distinct / frags : 0,
            "ratio");
  SetMetric(metrics, "index.probe_ms", probe, "ms");
  SetMetric(metrics, "index.range_queries",
            count_mean(&WalkCounts::range_queries), "count");
  SetMetric(metrics, "index.hits", count_mean(&WalkCounts::hits), "count");
  SetMetric(metrics, "core.filter_ms", filter, "ms");
  SetMetric(metrics, "core.filter_self_ms", filter - enumerate - probe, "ms");
  SetMetric(metrics, "core.candidates", count_mean(&WalkCounts::candidates),
            "count");
  SetMetric(metrics, "core.verify_ms",
            mean_of([&](auto& w) { return d(w, "verify"); }), "ms");
  SetMetric(metrics, "core.answer_frac", cands > 0 ? answers / cands : 0,
            "ratio");

  const double compute =
      mean_of([&](auto& w) { return d(w, "shard_query_compute"); });
  const double encode = mean_of([&](auto& w) { return d(w, "encode"); });
  const double decode = mean_of([&](auto& w) { return d(w, "decode"); });
  SetMetric(metrics, "shard_ops.compute_ms", compute, "ms");
  SetMetric(metrics, "shard_ops.encode_ms", encode, "ms");
  SetMetric(metrics, "shard_ops.decode_ms", decode, "ms");

  const double shard_query =
      mean_of([&](auto& w) { return d(w, "shard_query:"); });
  SetMetric(metrics, "backend.shard_query_ms", shard_query, "ms");
  SetMetric(metrics, "backend.shard_verify_ms",
            mean_of([&](auto& w) { return d(w, "shard_verify:"); }), "ms");
  SetMetric(metrics, "backend.wire_ms",
            shard_query - compute - encode - decode, "ms");
  SetMetric(metrics, "backend.reply_bytes",
            count_mean(&WalkCounts::backend_reply_bytes), "B");
  SetMetric(metrics, "backend.rpcs", count_mean(&WalkCounts::rpcs), "count");
  double r1_sum = 0, r1_wall = 0;
  for (const WalkTimes& w : walks) {
    r1_sum += w.round1_sum;
    r1_wall += w.round1_wall;
  }
  SetMetric(metrics, "backend.fanout_overlap",
            r1_wall > 0 ? r1_sum / r1_wall : 0, "ratio");

  const double cluster =
      mean_of([&](auto& w) { return d(w, "cluster_search"); });
  SetMetric(metrics, "cluster.search_ms", cluster, "ms");
  SetMetric(metrics, "cluster.self_ms",
            mean_of([](auto& w) { return w.cluster_self; }), "ms");

  const double router = mean_of([&](auto& w) { return d(w, "router_rtt"); });
  const double server = mean_of([&](auto& w) { return d(w, "server_rtt"); });
  const double host = mean_of([&](auto& w) { return d(w, "host_search"); });
  SetMetric(metrics, "router.rtt_ms", router, "ms");
  SetMetric(metrics, "router.frontend_ms", router - cluster, "ms");
  SetMetric(metrics, "router.vs_server_x", server > 0 ? router / server : 0,
            "ratio");
  SetMetric(metrics, "server.rtt_ms", server, "ms");
  SetMetric(metrics, "server.frontend_ms", server - host, "ms");
  SetMetric(metrics, "server.reply_bytes",
            count_mean(&WalkCounts::server_reply_bytes), "B");

  // host.*: HostStats deltas over the run on the front door's hosts.
  double batches = 0, batch_ops = 0, compactions = 0, checkpoints = 0;
  const std::vector<const EngineHost*> hosts = FrontDoorHosts();
  for (size_t i = 0; i < hosts.size() && i < host_before_.size(); ++i) {
    const EngineHost::HostStats after = hosts[i]->Stats();
    const EngineHost::HostStats& before = host_before_[i];
    batches += static_cast<double>(after.group_commit_batches -
                                   before.group_commit_batches);
    batch_ops += static_cast<double>(after.group_commit_ops -
                                     before.group_commit_ops);
    compactions += static_cast<double>(after.background_compactions -
                                       before.background_compactions);
    checkpoints += static_cast<double>(after.checkpoints - before.checkpoints);
  }
  SetMetric(metrics, "host.search_ms", host, "ms");
  SetMetric(metrics, "host.ops_per_batch",
            batches > 0 ? batch_ops / batches : 0, "ratio");
  SetMetric(metrics, "host.wal_bytes_per_write",
            Percentile(wal_bytes_per_write_, 0.5), "B");
  SetMetric(metrics, "host.compactions", compactions, "count");
  SetMetric(metrics, "host.checkpoints", checkpoints, "count");

  // loadgen: how late requests left the generator — the open-loop
  // writer's send minus schedule under server_rw, the closed-loop gap
  // between a reply and the next send otherwise.
  std::vector<double> late;
  if (cfg_.workload == Workload::kServerRw) {
    for (const Op& op : writer_log_.ops) {
      late.push_back(op.send_ms - op.sched_ms);
    }
  } else {
    for (const std::vector<ClientLog>* logs : {&untraced_logs_, &query_logs_}) {
      for (const ClientLog& log : *logs) {
        late.insert(late.end(), log.gaps_ms.begin(), log.gaps_ms.end());
      }
    }
  }
  SetMetric(metrics, "loadgen.late_p90_ms", Percentile(late, 0.9), "ms");

  double root_sum = 0, root_self = 0;
  for (const WalkTimes& w : walks) {
    root_sum += w.root;
    root_self += w.root_self;
  }
  SetMetric(metrics, "trace.unattributed_frac",
            root_sum > 0 ? root_self / root_sum : 0, "ratio");

  // Overhead: the front-door call inside a walk against the same query's
  // untraced latency from the untraced quarter.
  std::map<int, std::vector<double>> untraced;
  for (const ClientLog& log : untraced_logs_) {
    for (const Op& op : log.ops) {
      if (op.ok) untraced[op.query].push_back(op.latency_ms());
    }
  }
  const char* front_door = cfg_.workload == Workload::kEngineMix ? "host_search"
                           : cfg_.workload == Workload::kRouterQ16
                               ? "router_rtt"
                               : "server_rtt";
  double traced_sum = 0, untraced_sum = 0;
  for (size_t i = 0; i < walks.size(); ++i) {
    auto it = untraced.find(walk_queries_[i]);
    if (it == untraced.end()) continue;
    traced_sum += d(walks[i], front_door);
    untraced_sum += Mean(it->second);
  }
  SetMetric(metrics, "trace.overhead_frac",
            untraced_sum > 0 ? traced_sum / untraced_sum - 1 : 0, "ratio");

  const std::string span_file = cfg_.out_dir + "/spans-" +
                                cfg_.workload_name + "-" +
                                std::to_string(cfg_.seed) + ".jsonl";
  std::filesystem::create_directories(cfg_.out_dir);
  context->Set("span_file", spans_.WriteJsonLines(span_file)
                                ? JsonValue(span_file)
                                : JsonValue("(write failed)"));
  context->Set("walks", static_cast<int64_t>(walks.size()));
  context->Set("trace_queries", cfg_.trace_queries);
}

Result<RunConfig> ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  int trace = 0;
  FlagSet flags;
  flags.AddString("workload", &cfg.workload_name,
                  "engine_mix | router_q16 | server_rw");
  flags.AddInt64("seed", &cfg.seed, "query and write-pool seed");
  flags.AddDouble("seconds", &cfg.seconds, "measured seconds");
  flags.AddInt("trace", &trace, "1 = traced run (per-layer metrics)");
  flags.AddBool("short", &cfg.short_mode, "small dataset (self-test)");
  flags.AddBool("corrupt_oracle", &cfg.corrupt_oracle,
                "corrupt one oracle entry (self-test)");
  flags.AddString("out_dir", &cfg.out_dir, "span files and WAL directory");
  PIS_RETURN_NOT_OK(flags.Parse(argc, argv));
  cfg.trace = trace != 0;
  if (cfg.workload_name == "engine_mix") {
    cfg.workload = Workload::kEngineMix;
    cfg.query_sizes = {8, 16, 24};
    cfg.queries_per_size = 12;
    cfg.query_clients = 1;
    cfg.pool_size = 100;
    cfg.trace_queries = 6;
  } else if (cfg.workload_name == "router_q16") {
    cfg.workload = Workload::kRouterQ16;
    cfg.query_sizes = {16};
    cfg.queries_per_size = 24;
    cfg.query_clients = 2;
    cfg.pool_size = 100;
    cfg.trace_queries = 4;
  } else if (cfg.workload_name == "server_rw") {
    cfg.workload = Workload::kServerRw;
    cfg.query_sizes = {16};
    cfg.queries_per_size = 48;
    cfg.query_clients = 3;
    cfg.trace_queries = 4;
  } else {
    return Status::InvalidArgument("unknown --workload \"" +
                                   cfg.workload_name + "\"");
  }
  if (cfg.seconds <= 0) return Status::InvalidArgument("--seconds must be > 0");
  if (cfg.short_mode) {
    cfg.db_size = 150;
    cfg.queries_per_size =
        std::max(2, 6 / static_cast<int>(cfg.query_sizes.size()));
    cfg.pool_size = 8;
    cfg.trace_queries = static_cast<int>(cfg.query_sizes.size());
    cfg.end_check_queries = 2;
  }
  return cfg;
}

}  // namespace
}  // namespace pis::perfbench

int main(int argc, char** argv) {
  using namespace pis::perfbench;
  pis::Result<RunConfig> cfg = ParseArgs(argc, argv);
  if (!cfg.ok()) {
    std::fprintf(stderr, "pis_perfbench: %s\n",
                 cfg.status().ToString().c_str());
    return 2;
  }
  pis::Status status;
  {
    Bench bench(cfg.MoveValue());
    status = bench.Run();
    bench.CleanUp();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "pis_perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
