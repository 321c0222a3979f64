#include "obs/metrics_server.hpp"

#include <cstdlib>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace psdns::obs {

MetricsServer::MetricsServer(Options options) {
  net::HttpServer::Options server_opts;
  server_opts.port = options.port;
  server_opts.bind = options.bind;
  server_ = std::make_unique<net::HttpServer>(
      server_opts,
      [this](const net::HttpRequest& request) { return handle(request); });
}

MetricsServer::~MetricsServer() = default;

void MetricsServer::publish(std::string prometheus, std::string json,
                            std::string health_json, bool unhealthy) {
  const std::lock_guard<std::mutex> lock(mutex_);
  prometheus_ = std::move(prometheus);
  json_ = std::move(json);
  health_json_ = std::move(health_json);
  unhealthy_ = unhealthy;
}

net::HttpResponse MetricsServer::handle(const net::HttpRequest& request) {
  registry().counter_add("telemetry.http.requests");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (request.path == "/metrics") {
    return net::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             prometheus_};
  }
  if (request.path == "/json" || request.path == "/") {
    return net::HttpResponse::json(json_);
  }
  if (request.path == "/health") {
    return net::HttpResponse::json(health_json_, unhealthy_ ? 503 : 200);
  }
  return net::HttpResponse::not_found();
}

int metrics_port_from_env(int fallback) {
  const char* value = std::getenv("PSDNS_METRICS_PORT");
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long port = std::strtol(value, &end, 10);
  PSDNS_REQUIRE(end != value && *end == '\0' && port >= 0 && port <= 65535,
                "PSDNS_METRICS_PORT must be an integer in [0, 65535]");
  return static_cast<int>(port);
}

std::string http_get(const std::string& host, int port,
                     const std::string& path, int* status, double timeout_s) {
  return net::http_get(host, port, path, status, timeout_s);
}

}  // namespace psdns::obs
