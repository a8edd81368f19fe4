// The serving components one benchmark run starts, each configured with
// its binary's defaults (4 workers, sketch off, shard_threads 1,
// verify_threads 1), all inside the benchmark process on loopback:
//
//   main host    an EngineHost over the whole index: called in-process
//                (engine_mix) or served by `main server`, a PisServer with
//                a WAL, background compaction and periodic checkpoints
//                (server_rw);
//   shard hosts  one EngineHost + PisServer per shard, each owning its
//                shard, fronted by a ClusterEngine (built with
//                ClusterEngine::Connect, health thread on) and a
//                RouterServer (router_q16).
//
// Every server counts in the connection ledger against its worker count.
#ifndef PIS_PERFBENCH_STACK_H_
#define PIS_PERFBENCH_STACK_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net.h"
#include "obs/metrics.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/pis_server.h"
#include "server/router_server.h"
#include "server/shard_backend.h"
#include "server/wal.h"
#include "span_log.h"

namespace pis::perfbench {

/// Write-path settings of the server_rw host.
struct DurabilityConfig {
  std::string wal_dir;
  std::string checkpoint_index_dir;
  std::string checkpoint_db_path;
  int checkpoint_interval_ms = 3000;
  /// Dead ratio at which the background compactor rewrites a shard; low
  /// enough that the add/remove stream trips it several times per run.
  double compact_dead_ratio = 0.01;
  /// pis_server's --compact_interval_ms default.
  int compact_interval_ms = 2000;
};

/// One simulated server process: its own metrics registry, host, server.
struct ServerProc {
  std::string name;
  int ledger_id = -1;
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<EngineHost> host;
  std::unique_ptr<PisServer> server;

  ~ServerProc() {
    if (server != nullptr) {
      server->Shutdown();
      server->Wait();
    }
    if (host != nullptr) host->StopAutoCompaction();
  }
};

/// \brief The components of one run; destruction stops them in order.
struct Stack {
  ConnLedger ledger;
  /// In-process host (engine_mix), or the host behind `main_server`.
  std::unique_ptr<ServerProc> main;
  std::vector<std::unique_ptr<ServerProc>> shards;
  std::unique_ptr<MetricsRegistry> router_metrics;
  /// The ClusterEngine's one socket per shard server.
  std::vector<std::unique_ptr<ConnSlot>> fabric_slots;
  std::unique_ptr<ClusterEngine> cluster;
  std::unique_ptr<RouterServer> router;
  int router_ledger_id = -1;

  ~Stack() {
    if (router != nullptr) {
      router->Shutdown();
      router->Wait();
    }
    router.reset();
    if (cluster != nullptr) cluster->StopHealthThread();
    cluster.reset();  // closes the fabric sockets before the shards stop
    fabric_slots.clear();
    shards.clear();
    main.reset();
  }

  /// Starts the main host; with `serve`, also its PisServer; with
  /// `durability`, attaches the WAL, checkpoints and the compactor.
  Status StartMain(const GraphDatabase& db, const ShardedFragmentIndex& index,
                   bool serve, const DurabilityConfig* durability) {
    main = std::make_unique<ServerProc>();
    main->name = "main_server";
    main->metrics = std::make_unique<MetricsRegistry>();
    PisOptions options;
    if (durability != nullptr) {
      options.compact_dead_ratio = durability->compact_dead_ratio;
    }
    main->host = std::make_unique<EngineHost>(db, index, options);
    if (durability != nullptr) {
      PIS_ASSIGN_OR_RETURN(WriteAheadLog wal,
                           WriteAheadLog::Open(durability->wal_dir));
      PIS_RETURN_NOT_OK(main->host->AttachWal(
          std::make_unique<WriteAheadLog>(std::move(wal))));
      EngineHost::CheckpointConfig ckpt;
      ckpt.index_dir = durability->checkpoint_index_dir;
      ckpt.db_path = durability->checkpoint_db_path;
      ckpt.interval =
          std::chrono::milliseconds(durability->checkpoint_interval_ms);
      PIS_RETURN_NOT_OK(main->host->EnableCheckpoints(ckpt));
      PIS_RETURN_NOT_OK(main->host->StartAutoCompaction(
          std::chrono::milliseconds(durability->compact_interval_ms)));
    }
    main->host->EnableMetrics(main->metrics.get());
    if (!serve) return Status::OK();
    PisServerOptions sopt;
    sopt.metrics = main->metrics.get();
    main->server = std::make_unique<PisServer>(main->host.get(), sopt);
    PIS_RETURN_NOT_OK(main->server->Start());
    main->ledger_id = ledger.Register(main->name, sopt.num_workers);
    return Status::OK();
  }

  /// Starts one shard server per shard, the ClusterEngine over them and the
  /// RouterServer in front.
  Status StartRouterFabric(const GraphDatabase& db,
                           const ShardedFragmentIndex& index) {
    ClusterManifest manifest;
    for (int s = 0; s < index.num_shards(); ++s) {
      auto proc = std::make_unique<ServerProc>();
      proc->name = "shard_server" + std::to_string(s);
      proc->metrics = std::make_unique<MetricsRegistry>();
      proc->host = std::make_unique<EngineHost>(db, index, PisOptions{});
      proc->host->EnableMetrics(proc->metrics.get());
      PisServerOptions sopt;
      sopt.metrics = proc->metrics.get();
      sopt.shards_owned = {s};
      proc->server = std::make_unique<PisServer>(proc->host.get(), sopt);
      PIS_RETURN_NOT_OK(proc->server->Start());
      proc->ledger_id = ledger.Register(proc->name, sopt.num_workers);
      manifest.shards.push_back(
          {{"127.0.0.1:" + std::to_string(proc->server->port())}});
      shards.push_back(std::move(proc));
    }
    for (const auto& proc : shards) {
      PIS_ASSIGN_OR_RETURN(std::unique_ptr<ConnSlot> slot,
                           ConnSlot::Take(&ledger, proc->ledger_id));
      fabric_slots.push_back(std::move(slot));
    }
    router_metrics = std::make_unique<MetricsRegistry>();
    ClusterEngineOptions copt;  // pis_router defaults
    copt.metrics = router_metrics.get();
    PIS_ASSIGN_OR_RETURN(cluster, ClusterEngine::Connect(manifest, copt));
    cluster->StartHealthThread();
    RouterServerOptions ropt;
    ropt.metrics = router_metrics.get();
    router = std::make_unique<RouterServer>(cluster.get(), ropt);
    PIS_RETURN_NOT_OK(router->Start());
    router_ledger_id = ledger.Register("router", ropt.num_workers);
    return Status::OK();
  }
};

/// Where the timing backends record: the walker sets the trace id and the
/// parent span before each ClusterEngine::Search of the wrapper engine.
struct BackendProbe {
  SpanLog* log = nullptr;
  std::string trace_id;
  int64_t parent = 0;
  /// Backend calls since the walker last reset it.
  std::atomic<int> rpcs{0};
};

/// \brief A ShardBackend that times each query-path call of the wrapped
/// RemoteShardBackend as a span named like the program's own round-trip
/// spans (shard_query:<endpoint>, shard_verify:<endpoint>).
class TimingBackend : public ShardBackend {
 public:
  TimingBackend(std::unique_ptr<RemoteShardBackend> inner, BackendProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  const std::string& name() const override { return inner_->name(); }
  Result<uint64_t> Health() override { return inner_->Health(); }
  Result<ShardMeta> Meta() override { return inner_->Meta(); }
  Result<ShardQueryResult> ShardQuery(const Graph& query,
                                      const std::vector<int>& shards,
                                      double sigma, bool sketch,
                                      bool trace) override {
    const double start = NowMs();
    Result<ShardQueryResult> r =
        inner_->ShardQuery(query, shards, sigma, sketch, trace);
    probe_->log->Add(probe_->trace_id, probe_->parent, "shard_query:" + name(),
                     start, NowMs());
    ++probe_->rpcs;
    return r;
  }
  Result<std::vector<int>> ShardVerify(
      const Graph& query, const std::vector<int>& ids, double sigma,
      bool trace, std::vector<TraceSpan>* spans_out) override {
    const double start = NowMs();
    Result<std::vector<int>> r =
        inner_->ShardVerify(query, ids, sigma, trace, spans_out);
    probe_->log->Add(probe_->trace_id, probe_->parent,
                     "shard_verify:" + name(), start, NowMs());
    ++probe_->rpcs;
    return r;
  }
  Result<uint64_t> ShardAdd(int gid, int shard, const Graph& g) override {
    return inner_->ShardAdd(gid, shard, g);
  }
  Result<RemoveOutcome> ShardRemove(int gid) override {
    return inner_->ShardRemove(gid);
  }

 private:
  std::unique_ptr<RemoteShardBackend> inner_;
  BackendProbe* probe_;
};

}  // namespace pis::perfbench

#endif  // PIS_PERFBENCH_STACK_H_
