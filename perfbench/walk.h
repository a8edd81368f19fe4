// The traced run's per-query layer walk. One walk sends one query through
// every layer's public entry point in turn and records a span around each
// call, all under one root span and trace id:
//
//   enumerate            EnumerateIndexedQueryFragments
//   range_queries        MinDistancePerGraph per fragment x shard
//                        (children range_queries:shard<s>)
//   filter               ShardedPisEngine::Filter (repeats enumerate and
//                        probing inside; filter_self = filter - both)
//   verify               VerifyCandidates on the filter's candidates
//   host_search          one EngineHost search on a pinned snapshot
//   server_rtt           a classic `query` round trip to one PisServer
//   shard_ops            RunShardQuery / ShardQueryResultToJson+Serialize /
//                        Parse+ShardQueryResultFromJson per shard
//                        (children shard_query_compute|encode|decode:shard<s>)
//   replay:<endpoint>    the same shard_query over a raw socket (raw reply
//                        line length)
//   cluster_search       ClusterEngine::Search of a wrapper engine whose
//                        backends time each RemoteShardBackend call
//                        (children shard_query:<ep>, shard_verify:<ep>)
//   router_rtt           a `query` round trip through the RouterServer
//
// The core calls (enumerate .. verify) run on a whole-index host's snapshot
// as published at set-up, so their counts do not depend on write timing.
// Every call that returns answers is checked against the oracle.
#ifndef PIS_PERFBENCH_WALK_H_
#define PIS_PERFBENCH_WALK_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/filter_impl.h"
#include "core/query_fragments.h"
#include "core/verifier.h"
#include "inputs.h"
#include "net.h"
#include "server/shard_ops.h"
#include "span_log.h"
#include "stack.h"

namespace pis::perfbench {

/// Per-query counts of one walk (the deterministic half of the metrics).
struct WalkCounts {
  double fragments = 0;
  double distinct = 0;
  double range_queries = 0;
  double hits = 0;
  double candidates = 0;
  double answers = 0;
  double backend_reply_bytes = 0;
  double server_reply_bytes = 0;
  double rpcs = 0;
};

/// Outcome of one checked call of a walk. Calls that may see the write
/// stream's graphs are judged after the run against the complete write
/// log (`deferred`, with the query, the snapshot epoch and the answers).
struct WalkCheck {
  std::string what;
  bool ok = false;
  bool deferred = false;
  int query = -1;
  uint64_t epoch = 0;
  std::vector<int> answers;

  static WalkCheck Now(std::string what, bool ok) {
    WalkCheck c;
    c.what = std::move(what);
    c.ok = ok;
    return c;
  }
  static WalkCheck Later(std::string what, int query, uint64_t epoch,
                         std::vector<int> answers) {
    WalkCheck c = Now(std::move(what), true);
    c.deferred = true;
    c.query = query;
    c.epoch = epoch;
    c.answers = std::move(answers);
    return c;
  }
};

/// \brief Drives layer walks; owns the wrapper ClusterEngine.
class Walker {
 public:
  /// `core_snap` is a whole-index host's set-up snapshot; `probe_host` is the
  /// host behind the server that `server_rtt` queries (`server_port`,
  /// `server_ledger_id`). With a non-null `server_client` that persistent
  /// connection is used for server_rtt instead of a fresh one per walk.
  Walker(const RunConfig& cfg, const Inputs& in, Stack* stack, SpanLog* log,
         std::shared_ptr<const EngineHost::Snapshot> core_snap,
         const EngineHost* probe_host, int server_port, int server_ledger_id,
         LineClient* server_client, LineClient* router_client)
      : cfg_(cfg),
        in_(in),
        stack_(stack),
        log_(log),
        core_snap_(std::move(core_snap)),
        probe_host_(probe_host),
        server_port_(server_port),
        server_ledger_id_(server_ledger_id),
        server_client_(server_client),
        router_client_(router_client) {
    probe_.log = log;
  }

  /// Connects the wrapper ClusterEngine (one socket per shard server,
  /// counted in the ledger).
  Status Start() {
    std::vector<std::unique_ptr<ShardBackend>> backends;
    std::vector<std::vector<int>> shards_of;
    ClusterEngineOptions copt;  // pis_router defaults
    for (size_t s = 0; s < stack_->shards.size(); ++s) {
      PIS_ASSIGN_OR_RETURN(
          std::unique_ptr<ConnSlot> slot,
          ConnSlot::Take(&stack_->ledger, stack_->shards[s]->ledger_id));
      slots_.push_back(std::move(slot));
      backends.push_back(std::make_unique<TimingBackend>(
          std::make_unique<RemoteShardBackend>(
              "127.0.0.1", stack_->shards[s]->server->port(), copt.timeout_ms),
          &probe_));
      shards_of.push_back({static_cast<int>(s)});
    }
    cluster_ = std::make_unique<ClusterEngine>(std::move(backends),
                                               std::move(shards_of), copt);
    return cluster_->Bootstrap();
  }

  /// Closes the wrapper engine's sockets (before anything else connects).
  void Stop() {
    cluster_.reset();
    slots_.clear();
  }

  /// Walks query `q` under `trace_id`. Transport or protocol errors fail
  /// the walk; answer mismatches are reported through `checks`.
  Status Walk(int q, const std::string& trace_id, WalkCounts* counts,
              std::vector<WalkCheck>* checks) {
    const Graph& query = in_.queries[q];
    const double sigma = cfg_.sigma;
    const int64_t root = log_->NewId();
    const double root_start = NowMs();

    // core: enumerate.
    double t = NowMs();
    PIS_ASSIGN_OR_RETURN(std::vector<QueryFragment> fragments,
                         EnumerateIndexedQueryFragments(
                             core_snap_->index->shard(0), query,
                             core_snap_->engine.options().max_query_fragments));
    log_->Add(trace_id, root, "enumerate", t, NowMs());
    counts->fragments = static_cast<double>(fragments.size());
    std::set<std::string> distinct;
    for (const QueryFragment& f : fragments) distinct.insert(FragmentKey(f));
    counts->distinct = static_cast<double>(distinct.size());

    // index: one range query per fragment and shard.
    const int64_t probe_id = log_->NewId();
    const double probe_start = NowMs();
    std::unordered_map<int, double> min_dist;
    size_t range_queries = 0;
    size_t hits = 0;
    for (int s = 0; s < core_snap_->index->num_shards(); ++s) {
      t = NowMs();
      for (const QueryFragment& f : fragments) {
        min_dist.clear();
        PIS_RETURN_NOT_OK(internal::MinDistancePerGraph(
            core_snap_->index->shard(s), f.prepared, sigma, &min_dist));
        ++range_queries;
        hits += min_dist.size();
      }
      log_->Add(trace_id, probe_id, "range_queries:shard" + std::to_string(s),
                t, NowMs());
    }
    log_->Record({probe_id, root, trace_id, "range_queries", probe_start,
                  NowMs()});
    counts->range_queries = static_cast<double>(range_queries);
    counts->hits = static_cast<double>(hits);

    // core: the whole filter, then verification of its candidates.
    t = NowMs();
    PIS_ASSIGN_OR_RETURN(FilterResult filtered,
                         core_snap_->engine.Filter(query));
    log_->Add(trace_id, root, "filter", t, NowMs());
    counts->candidates = static_cast<double>(filtered.candidates.size());
    t = NowMs();
    VerifyResult verified = VerifyCandidates(
        *core_snap_->db, query, filtered.candidates,
        core_snap_->index->options().spec, sigma,
        core_snap_->engine.options().verify_threads);
    log_->Add(trace_id, root, "verify", t, NowMs());
    counts->answers = static_cast<double>(verified.answers.size());
    checks->push_back(
        WalkCheck::Now("verify", verified.answers == in_.oracle[q]));

    // host: one search on a pinned snapshot (what EngineHost::Search does),
    // keeping the epoch so answers under concurrent writes can be judged.
    t = NowMs();
    std::shared_ptr<const EngineHost::Snapshot> snap = probe_host_->snapshot();
    PIS_ASSIGN_OR_RETURN(SearchResult searched, snap->engine.Search(query));
    probe_host_->AccountQuery(searched.stats);
    log_->Add(trace_id, root, "host_search", t, NowMs());
    checks->push_back(WalkCheck::Later("host_search", q, snap->epoch,
                                       std::move(searched.answers)));

    // shard_ops: the replica's compute and the codec, in-process.
    const int64_t ops_id = log_->NewId();
    const double ops_start = NowMs();
    for (size_t s = 0; s < stack_->shards.size(); ++s) {
      const std::string tag = ":shard" + std::to_string(s);
      std::shared_ptr<const EngineHost::Snapshot> shard_snap =
          stack_->shards[s]->host->snapshot();
      t = NowMs();
      PIS_ASSIGN_OR_RETURN(
          ShardQueryResult result,
          RunShardQuery(*shard_snap, {static_cast<int>(s)}, query, sigma,
                        /*sketch=*/false, shard_snap->engine.options()));
      log_->Add(trace_id, ops_id, "shard_query_compute" + tag, t, NowMs());
      t = NowMs();
      JsonValue reply = JsonValue::Object();
      reply.Set("ok", true);
      ShardQueryResultToJson(result, &reply);
      const std::string line = reply.Serialize();
      log_->Add(trace_id, ops_id, "encode" + tag, t, NowMs());
      t = NowMs();
      PIS_ASSIGN_OR_RETURN(JsonValue parsed, JsonValue::Parse(line));
      PIS_ASSIGN_OR_RETURN(ShardQueryResult decoded,
                           ShardQueryResultFromJson(parsed));
      log_->Add(trace_id, ops_id, "decode" + tag, t, NowMs());
      checks->push_back(WalkCheck::Now(
          "shard_ops", decoded.fragments.size() == fragments.size()));
    }
    log_->Record({ops_id, root, trace_id, "shard_ops", ops_start, NowMs()});

    // The same shard_query over a raw socket, one short-lived connection
    // per shard server, closed before the next one opens.
    counts->backend_reply_bytes = 0;
    for (size_t s = 0; s < stack_->shards.size(); ++s) {
      PIS_ASSIGN_OR_RETURN(
          std::unique_ptr<LineClient> raw,
          LineClient::Open(&stack_->ledger, stack_->shards[s]->ledger_id,
                           stack_->shards[s]->server->port()));
      JsonValue request = JsonValue::Object();
      request.Set("op", "shard_query");
      request.Set("graph", FormatGraph(query, 0));
      JsonValue shard_list = JsonValue::Array();
      shard_list.Push(static_cast<int>(s));
      request.Set("shards", std::move(shard_list));
      request.Set("sigma", sigma);
      request.Set("sketch", false);
      const std::string line = request.Serialize();
      size_t bytes = 0;
      t = NowMs();
      PIS_RETURN_NOT_OK(raw->Call(line, &bytes).status());
      log_->Add(trace_id, root, "replay:" + stack_->shards[s]->name, t,
                NowMs());
      counts->backend_reply_bytes += static_cast<double>(bytes);
    }

    // server: a classic query round trip.
    {
      std::unique_ptr<LineClient> transient;
      LineClient* client = server_client_;
      if (client == nullptr) {
        PIS_ASSIGN_OR_RETURN(transient,
                             LineClient::Open(&stack_->ledger,
                                              server_ledger_id_, server_port_));
        client = transient.get();
      }
      size_t bytes = 0;
      t = NowMs();
      PIS_ASSIGN_OR_RETURN(JsonValue reply,
                           client->Call(in_.query_lines[q], &bytes));
      log_->Add(trace_id, root, "server_rtt", t, NowMs());
      counts->server_reply_bytes = static_cast<double>(bytes);
      PIS_ASSIGN_OR_RETURN(std::vector<int> answers, ReplyAnswers(reply));
      checks->push_back(WalkCheck::Later(
          "server_rtt", q, static_cast<uint64_t>(reply.GetNumberOr("epoch", 0)),
          std::move(answers)));
    }

    // cluster: the wrapper engine, its backend calls as child spans.
    const int64_t cluster_id = log_->NewId();
    probe_.trace_id = trace_id;
    probe_.parent = cluster_id;
    probe_.rpcs = 0;
    t = NowMs();
    PIS_ASSIGN_OR_RETURN(SearchResult clustered, cluster_->Search(query));
    log_->Record({cluster_id, root, trace_id, "cluster_search", t, NowMs()});
    counts->rpcs = static_cast<double>(probe_.rpcs.load());
    checks->push_back(WalkCheck::Now("cluster_search",
                                     clustered.answers == in_.oracle[q]));

    // router: the client round trip through the RouterServer.
    t = NowMs();
    PIS_ASSIGN_OR_RETURN(JsonValue routed,
                         router_client_->Call(in_.query_lines[q]));
    log_->Add(trace_id, root, "router_rtt", t, NowMs());
    PIS_ASSIGN_OR_RETURN(std::vector<int> routed_answers, ReplyAnswers(routed));
    checks->push_back(
        WalkCheck::Now("router_rtt", routed_answers == in_.oracle[q]));

    log_->Record({root, 0, trace_id, "query", root_start, NowMs()});
    return Status::OK();
  }

 private:
  /// Distinct-fragment key: class, label sequence and weights.
  static std::string FragmentKey(const QueryFragment& f) {
    std::string key = std::to_string(f.prepared.class_id) + "|";
    for (Label l : f.prepared.labels) key += std::to_string(l) + ",";
    key += "|";
    for (double w : f.prepared.weights) key += std::to_string(w) + ",";
    return key;
  }

  const RunConfig& cfg_;
  const Inputs& in_;
  Stack* stack_;
  SpanLog* log_;
  std::shared_ptr<const EngineHost::Snapshot> core_snap_;
  const EngineHost* probe_host_;
  int server_port_;
  int server_ledger_id_;
  LineClient* server_client_;
  LineClient* router_client_;
  BackendProbe probe_;
  std::vector<std::unique_ptr<ConnSlot>> slots_;
  std::unique_ptr<ClusterEngine> cluster_;
};

}  // namespace pis::perfbench

#endif  // PIS_PERFBENCH_WALK_H_
