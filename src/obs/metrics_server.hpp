#pragma once
// Live metrics endpoint: the rank-0 telemetry peephole, now a thin adapter
// over the reusable net::HttpServer (the socket loop and request parsing
// live in net/http.*; this file only owns the served documents). Off by
// default; enabled per-campaign (CampaignConfig) or process-wide with
// PSDNS_METRICS_PORT. Port 0 binds an ephemeral port (tests and parallel
// CI jobs); port() reports the bound one.
//
// Routes:
//   /metrics - Prometheus text format 0.0.4 (latest reduced snapshot)
//   /json    - {"snapshot":..., "health":...} JSON
//   /health  - health report JSON alone (200 while verdict != abort,
//              503 on abort - a load-balancer-shaped liveness probe)
//   anything else - 404
//
// The handler only ever reads the documents under a mutex; publish()
// swaps them in from the campaign loop.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/http.hpp"

namespace psdns::obs {

class MetricsServer {
 public:
  struct Options {
    int port = 0;                     // 0 = ephemeral
    std::string bind = "127.0.0.1";
  };

  /// Binds, listens and starts the serving thread; throws util::Error
  /// (naming the port) when the socket cannot be bound.
  explicit MetricsServer(Options options);
  ~MetricsServer();
  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// The bound TCP port (resolves ephemeral binds).
  int port() const { return server_->port(); }

  /// Atomically replaces the served documents. `unhealthy` switches
  /// /health to 503.
  void publish(std::string prometheus, std::string json,
               std::string health_json, bool unhealthy = false);

  /// Requests served so far (all routes, including 404s).
  std::int64_t requests() const { return server_->requests(); }

 private:
  net::HttpResponse handle(const net::HttpRequest& request);

  std::mutex mutex_;
  std::string prometheus_ = "# TYPE psdns_up gauge\npsdns_up 1\n";
  std::string json_ = "{}";
  std::string health_json_ = "{}";
  bool unhealthy_ = false;
  std::unique_ptr<net::HttpServer> server_;  // last: handler reads the above
};

/// The endpoint port: PSDNS_METRICS_PORT when set (it must parse as an
/// integer in [0, 65535], else util::Error), otherwise `fallback` (-1 =
/// endpoint off).
int metrics_port_from_env(int fallback);

/// Tiny blocking HTTP GET used by psdns_top and the endpoint tests:
/// returns the response body; `status` (optional) receives the HTTP
/// status code. `timeout_s` bounds the whole exchange (the seed version
/// blocked forever on a stalled peer); <= 0 waits forever. Throws
/// util::Error on connect/IO failure or timeout. Forwards to
/// net::http_get; for a retrying client see svc::fetch (which wraps this
/// path in a resilience::RetryPolicy).
std::string http_get(const std::string& host, int port,
                     const std::string& path, int* status = nullptr,
                     double timeout_s = 30.0);

}  // namespace psdns::obs
