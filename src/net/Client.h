//===- net/Client.h - Blocking protocol client ------------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the annotation daemon's wire protocol —
/// the C++ twin of tools/nv_client.py, used by the tests (perfbench's
/// `net_*` workloads load the daemon with their own open-loop sender).
/// One connection, strict request/response (no pipelining); every call
/// returns the server's WireStatus so a caller can distinguish transport
/// failure (false + \p Error) from a protocol-level rejection
/// (OVERLOADED, SHUTTING_DOWN, ...).
///
/// Resilience (fault-hardening pass): every socket operation runs under
/// a deadline (ClientConfig::ConnectTimeoutMs / IoTimeoutMs — a hung
/// daemon can no longer block a caller forever), and transport failures
/// on *idempotent* verbs (ping, annotate, statsz) are retried up to
/// MaxRetries times over a fresh connection with capped exponential
/// backoff + deterministic jitter. `reload` is NOT transport-idempotent:
/// once its frame may have reached the daemon a blind resend could apply
/// the reload twice, so only connection *establishment* is retried for
/// it. Protocol-level rejections (OVERLOADED, ...) are never retried
/// internally — they are the server's explicit load signal and stay
/// visible to the caller.
///
//===----------------------------------------------------------------------===//

#ifndef NV_NET_CLIENT_H
#define NV_NET_CLIENT_H

#include "net/Protocol.h"
#include "support/Socket.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace nv {

/// Deadline and retry policy for a NetClient.
struct ClientConfig {
  int ConnectTimeoutMs = 5000; ///< TCP connect deadline; 0 = blocking.
  int IoTimeoutMs = 30000;     ///< Per-read/write deadline; 0 = none.
  int MaxRetries = 3;          ///< Extra attempts after the first failure.
  int BackoffBaseMs = 50;      ///< First backoff (doubles per attempt).
  int BackoffMaxMs = 2000;     ///< Backoff cap.
  uint64_t BackoffSeed = 0x9E3779B97F4A7C15ull; ///< Jitter stream.
};

/// Retry activity since connect()/resetRetryStats(), for tests and
/// callers that report it.
struct RetryStats {
  uint64_t Reconnects = 0; ///< Fresh connections after a transport loss.
  uint64_t Retries = 0;    ///< Operations re-sent after a failure.
};

/// Blocking single-connection client with deadlines and retries.
class NetClient {
public:
  NetClient() = default;
  explicit NetClient(const ClientConfig &Config) : Config(Config) {}

  /// Replaces the deadline/retry policy (applies from the next connect).
  void setConfig(const ClientConfig &NewConfig) { Config = NewConfig; }
  const ClientConfig &config() const { return Config; }

  /// Connects to \p Host:\p Port (one attempt, under ConnectTimeoutMs)
  /// and remembers the address for retry reconnects. False + \p Error on
  /// failure.
  bool connect(const std::string &Host, uint16_t Port,
               std::string *Error = nullptr);

  bool connected() const { return Sock.valid(); }
  void close() { Sock.reset(); }

  /// Liveness round trip. Idempotent: retried on transport failure.
  bool ping(std::string *Error = nullptr);

  /// Sends an annotate batch; \p Status receives the wire status. On Ok,
  /// \p Out holds the decoded results. Returns false only on transport
  /// or framing failure (after retries); a shed/rejected request is
  /// `true` with the corresponding status — see statusMessage() for the
  /// rejection text. Idempotent: retried on transport failure.
  bool annotate(const net::AnnotateRequestBody &Req,
                net::AnnotateResponseBody &Out, net::WireStatus &Status,
                std::string *Error = nullptr);

  /// Fetches the statsz JSON document. Idempotent: retried on transport
  /// failure.
  bool statsz(std::string &Json, std::string *Error = nullptr);

  /// Requests a hot reload of \p Path; \p Status receives the wire
  /// status. On Ok, \p Generation (when non-null) receives the new model
  /// generation; on RELOAD_FAILED, statusMessage() holds the cause. NOT
  /// transport-idempotent: only connection establishment is retried —
  /// a mid-stream failure surfaces to the caller, who knows whether a
  /// duplicate reload is acceptable.
  bool reload(const std::string &Path, net::WireStatus &Status,
              uint64_t *Generation = nullptr, std::string *Error = nullptr);

  /// The string body of the last non-Ok response (rejection cause).
  const std::string &statusMessage() const { return LastMessage; }

  const RetryStats &retryStats() const { return Stats; }
  void resetRetryStats() { Stats = RetryStats(); }

  /// The deterministic backoff before retry attempt \p Attempt
  /// (0-based), in microseconds: min(BackoffMaxMs, BackoffBaseMs <<
  /// Attempt) scaled by a jitter factor in [0.5, 1.0) drawn from the
  /// seeded per-attempt stream. Exposed for the chaos suite's
  /// bounded-latency assertions.
  static uint64_t backoffMicros(const ClientConfig &Config, int Attempt);

private:
  /// Writes \p Frame, then reads exactly one response for \p V into
  /// \p Header / \p Body. On failure the connection is closed (the
  /// stream position is unknown; request/response framing cannot
  /// recover mid-connection).
  bool roundTrip(net::Verb V, const std::vector<char> &Frame,
                 net::ResponseHeader &Header, std::vector<char> &Body,
                 std::string *Error);

  /// Reconnects to the remembered address if the socket is down.
  bool ensureConnected(std::string *Error);

  /// Runs \p Once (one full attempt: connect + round trip + decode) up
  /// to 1 + MaxRetries times with backoff between attempts.
  bool withRetries(const std::function<bool(std::string *)> &Once,
                   std::string *Error);

  ClientConfig Config;
  FileDescriptor Sock;
  std::string Host;
  uint16_t Port = 0;
  std::string LastMessage;
  RetryStats Stats;
};

} // namespace nv

#endif // NV_NET_CLIENT_H
