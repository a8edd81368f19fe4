// Client-side plumbing of the benchmark: a per-server connection ledger
// that keeps every server's open connections at or below its worker count
// (a LineServer worker owns one connection for its whole lifetime, so one
// connection too many would starve silently instead of failing), and a
// line-protocol client that counts raw reply bytes.
#ifndef PIS_PERFBENCH_NET_H_
#define PIS_PERFBENCH_NET_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis::perfbench {

/// Per-request socket deadline of benchmark clients: a hang becomes a
/// failed operation instead of a stuck run.
constexpr int kClientTimeoutMs = 60000;

/// \brief Counts open connections per server and refuses one past the
/// server's worker count.
class ConnLedger {
 public:
  int Register(std::string name, int limit) PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    servers_.push_back({std::move(name), limit, 0, 0});
    return static_cast<int>(servers_.size()) - 1;
  }

  Status Acquire(int server) PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    Entry& e = servers_[server];
    if (e.open + 1 > e.limit) {
      return Status::Unavailable(
          "connection limit: " + e.name + " already has " +
          std::to_string(e.open) + " open connections for " +
          std::to_string(e.limit) + " workers");
    }
    ++e.open;
    e.peak = std::max(e.peak, e.open);
    return Status::OK();
  }

  void Release(int server) PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    --servers_[server].open;
  }

  /// {"<server>": peak open connections} for the run's context record.
  JsonValue PeaksJson() const PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    JsonValue out = JsonValue::Object();
    for (const Entry& e : servers_) out.Set(e.name, e.peak);
    return out;
  }

 private:
  struct Entry {
    std::string name;
    int limit = 0;
    int open = 0;
    int peak = 0;
  };
  mutable Mutex mu_;
  std::vector<Entry> servers_ PIS_GUARDED_BY(mu_);
};

/// \brief One ledger slot, released on destruction.
class ConnSlot {
 public:
  ConnSlot(ConnLedger* ledger, int server) : ledger_(ledger), server_(server) {}
  ~ConnSlot() {
    if (ledger_ != nullptr) ledger_->Release(server_);
  }
  ConnSlot(const ConnSlot&) = delete;
  ConnSlot& operator=(const ConnSlot&) = delete;

  static Result<std::unique_ptr<ConnSlot>> Take(ConnLedger* ledger,
                                                int server) {
    PIS_RETURN_NOT_OK(ledger->Acquire(server));
    return std::make_unique<ConnSlot>(ledger, server);
  }

 private:
  ConnLedger* ledger_;
  int server_;
};

/// \brief A newline-delimited JSON client holding one ledger slot.
class LineClient {
 public:
  static Result<std::unique_ptr<LineClient>> Open(ConnLedger* ledger,
                                                  int server, int port) {
    PIS_ASSIGN_OR_RETURN(std::unique_ptr<ConnSlot> slot,
                         ConnSlot::Take(ledger, server));
    PIS_ASSIGN_OR_RETURN(TcpSocket sock, TcpSocket::Connect("127.0.0.1", port,
                                                            kClientTimeoutMs));
    auto client = std::unique_ptr<LineClient>(new LineClient());
    client->slot_ = std::move(slot);
    client->sock_ = std::move(sock);
    return client;
  }

  /// Sends one request line and parses the reply. A reply with "ok":false
  /// is an error carrying the server's message. `reply_bytes` (nullable)
  /// receives the raw reply line length including its newline.
  Result<JsonValue> Call(const std::string& request_line,
                         size_t* reply_bytes = nullptr) {
    PIS_RETURN_NOT_OK(sock_.SendLine(request_line));
    PIS_ASSIGN_OR_RETURN(std::string line, sock_.RecvLine());
    if (reply_bytes != nullptr) *reply_bytes = line.size() + 1;
    PIS_ASSIGN_OR_RETURN(JsonValue reply, JsonValue::Parse(line));
    if (!reply.GetBoolOr("ok", false)) {
      return Status::Internal("server replied: " +
                              reply.GetStringOr("error", line.substr(0, 200)));
    }
    return reply;
  }

 private:
  LineClient() = default;

  // Declared before the socket so the slot is released after the socket
  // has closed.
  std::unique_ptr<ConnSlot> slot_;
  TcpSocket sock_;
};

/// Reads an "answers" array of graph ids from a query reply.
inline Result<std::vector<int>> ReplyAnswers(const JsonValue& reply) {
  const JsonValue* answers = reply.Find("answers");
  if (answers == nullptr || !answers->is_array()) {
    return Status::InvalidArgument("reply has no \"answers\" array");
  }
  std::vector<int> ids;
  ids.reserve(answers->size());
  for (const JsonValue& v : answers->items()) {
    ids.push_back(static_cast<int>(v.AsNumber()));
  }
  return ids;
}

}  // namespace pis::perfbench

#endif  // PIS_PERFBENCH_NET_H_
