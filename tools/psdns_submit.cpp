// psdns_submit: command-line client for the campaign service.
//
//   psdns_submit --port N [--host H] [job fields...] [--wait] [--json]
//       submit a job; prints the submission response ("job 3 queued ...").
//       --wait polls GET /jobs/<id> until the job finishes, then fetches
//       and prints the result document.
//   psdns_submit --port N --fetch PATH
//       GET an arbitrary route (/metrics, /queue, ...) and print the body
//       (CI greps cache counters through this - no curl dependency).
//   psdns_submit --port N --shutdown
//       POST /shutdown (graceful drain).
//
// Job fields: --job FILE (key = value, see JobRequest::from_config) gives
// the base; --tenant --n --ranks --steps --seed --scheme --decomposition
// --dealias --viscosity --scalars --forcing 0|1 --system NAME
// --rotation-omega W --brunt-vaisala N --resistivity ETA override the
// file. --system selects the equation set (navier_stokes | rotating |
// boussinesq | mhd); the three parameter flags feed the matching system.
//
// Journey tracing: --trace ID names the job's journey (sent as the
// X-Psdns-Trace request header; without it the service mints a
// deterministic id, echoed in the response). --save-trace FILE fetches
// GET /jobs/<id>/trace once the job is done and writes the merged Chrome
// trace JSON (implies --wait; needs the service started with tracing on).
//
// Transport: every request runs through svc::fetch/post - per-attempt
// timeout (--timeout SECS, default 10) plus bounded retry (--retries N,
// default 3 attempts total).
//
// Exit codes: 0 success (job done / fetch ok), 3 the job finished Failed
// or Cancelled, 1 usage, transport or service errors.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "svc/client.hpp"
#include "svc/job.hpp"
#include "util/config.hpp"

namespace {

using psdns::obs::JsonValue;
using psdns::svc::FetchOptions;
using psdns::svc::JobRequest;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port N [--host H] [--job FILE] [--tenant T] [--n N]\n"
      "          [--ranks R] [--steps S] [--seed K] [--scheme rk2|rk4]\n"
      "          [--decomposition slab|pencil]\n"
      "          [--dealias truncation|phase_shift] [--viscosity V]\n"
      "          [--scalars M] [--forcing 0|1] [--wait] [--json]\n"
      "          [--system navier_stokes|rotating|boussinesq|mhd]\n"
      "          [--rotation-omega W] [--brunt-vaisala N]\n"
      "          [--resistivity ETA]\n"
      "          [--trace ID] [--save-trace FILE]\n"
      "          [--timeout SECS] [--retries N]\n"
      "       %s --port N --fetch PATH\n"
      "       %s --port N --shutdown\n",
      argv0, argv0, argv0);
  return 1;
}

bool apply_field(JobRequest& request, const std::string& flag,
                 const std::string& value) {
  if (flag == "--tenant") {
    request.tenant = value;
  } else if (flag == "--n") {
    request.n = static_cast<std::size_t>(std::atoll(value.c_str()));
  } else if (flag == "--ranks") {
    request.ranks = std::atoi(value.c_str());
  } else if (flag == "--steps") {
    request.steps = std::atoll(value.c_str());
  } else if (flag == "--seed") {
    request.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
  } else if (flag == "--scheme") {
    request.scheme = value;
  } else if (flag == "--decomposition") {
    request.decomposition = psdns::transpose::parse_decomposition(value);
  } else if (flag == "--dealias") {
    request.dealias = psdns::svc::parse_dealias_mode(value);
  } else if (flag == "--viscosity") {
    request.viscosity = std::atof(value.c_str());
  } else if (flag == "--scalars") {
    request.scalars = std::atoi(value.c_str());
  } else if (flag == "--forcing") {
    request.forcing = std::atoi(value.c_str()) != 0;
  } else if (flag == "--system") {
    request.system = value;
  } else if (flag == "--rotation-omega") {
    request.rotation_omega = std::atof(value.c_str());
  } else if (flag == "--brunt-vaisala") {
    request.brunt_vaisala = std::atof(value.c_str());
  } else if (flag == "--resistivity") {
    request.resistivity = std::atof(value.c_str());
  } else {
    return false;
  }
  return true;
}

std::string state_of(const std::string& record_json) {
  const JsonValue doc = psdns::obs::json_parse(record_json);
  return doc.has("state") ? doc.at("state").string : "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string job_file;
  std::string fetch_path;
  bool do_shutdown = false;
  bool wait = false;
  bool json_output = false;
  std::string trace_id;
  std::string save_trace_path;
  FetchOptions net;
  // Field flags are collected and applied after the --job file loads, so
  // command-line values override the file regardless of flag order.
  std::vector<std::pair<std::string, std::string>> fields;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wait") {
      wait = true;
      continue;
    }
    if (arg == "--json") {
      json_output = true;
      continue;
    }
    if (arg == "--shutdown") {
      do_shutdown = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--port") {
      port = std::atoi(value.c_str());
    } else if (arg == "--host") {
      host = value;
    } else if (arg == "--fetch") {
      fetch_path = value;
    } else if (arg == "--job") {
      job_file = value;
    } else if (arg == "--trace") {
      trace_id = value;
    } else if (arg == "--save-trace") {
      save_trace_path = value;
      wait = true;  // the trace is only complete once the job is
    } else if (arg == "--timeout") {
      net.timeout_s = std::atof(value.c_str());
    } else if (arg == "--retries") {
      net.retry.max_attempts = std::atoi(value.c_str());
    } else if (arg.rfind("--", 0) == 0) {
      fields.emplace_back(arg, value);
    } else {
      return usage(argv[0]);
    }
  }
  if (port < 0) return usage(argv[0]);

  try {
    if (!fetch_path.empty()) {
      int status = 0;
      const std::string body =
          psdns::svc::fetch(host, port, fetch_path, &status, net);
      std::printf("%s", body.c_str());
      if (!body.empty() && body.back() != '\n') std::printf("\n");
      return status == 200 ? 0 : 1;
    }
    if (do_shutdown) {
      int status = 0;
      const std::string body =
          psdns::svc::post(host, port, "/shutdown", "", &status, net);
      std::printf("%s\n", body.c_str());
      return status < 400 ? 0 : 1;
    }

    JobRequest request;
    if (!job_file.empty()) {
      request =
          JobRequest::from_config(psdns::util::Config::from_file(job_file));
    }
    for (const auto& [flag, value] : fields) {
      if (!apply_field(request, flag, value)) return usage(argv[0]);
    }
    request.validate();

    if (!trace_id.empty()) {
      net.headers.emplace_back("X-Psdns-Trace", trace_id);
    }
    int status = 0;
    const std::string submit_body = psdns::svc::post(
        host, port, "/jobs", request.to_json(), &status, net);
    net.headers.clear();  // only the submission carries the trace header
    if (status >= 400) {
      std::fprintf(stderr, "psdns_submit: HTTP %d: %s\n", status,
                   submit_body.c_str());
      return 1;
    }
    const JsonValue submitted = psdns::obs::json_parse(submit_body);
    const std::int64_t id =
        static_cast<std::int64_t>(submitted.at("id").number);
    const bool cached =
        submitted.has("cached") && submitted.at("cached").boolean;
    const std::string trace =
        submitted.has("trace") ? submitted.at("trace").string : "";
    if (json_output) {
      std::printf("%s\n", submit_body.c_str());
    } else if (trace.empty()) {
      std::printf("job %lld %s (hash %s)\n", static_cast<long long>(id),
                  cached ? "served from cache" : "queued",
                  submitted.at("hash").string.c_str());
    } else {
      std::printf("job %lld %s (hash %s, trace %s)\n",
                  static_cast<long long>(id),
                  cached ? "served from cache" : "queued",
                  submitted.at("hash").string.c_str(), trace.c_str());
    }
    if (!wait && !cached) return 0;

    // Poll the record until it leaves the queue, then fetch the result.
    std::string state;
    std::string record_json;
    for (;;) {
      record_json = psdns::svc::fetch(
          host, port, "/jobs/" + std::to_string(id), &status, net);
      state = state_of(record_json);
      if (state != "queued" && state != "running") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (json_output) {
      std::printf("%s\n", record_json.c_str());
    } else {
      std::printf("job %lld %s\n", static_cast<long long>(id),
                  state.c_str());
    }
    if (state != "done") return 3;
    const std::string result = psdns::svc::fetch(
        host, port, "/jobs/" + std::to_string(id) + "/result", &status, net);
    std::printf("%s\n", result.c_str());
    if (status != 200) return 1;
    if (!save_trace_path.empty()) {
      int trace_status = 0;
      const std::string trace_json = psdns::svc::fetch(
          host, port, "/jobs/" + std::to_string(id) + "/trace",
          &trace_status, net);
      if (trace_status != 200) {
        std::fprintf(stderr, "psdns_submit: no trace for job %lld: %s\n",
                     static_cast<long long>(id), trace_json.c_str());
        return 1;
      }
      psdns::obs::write_text_file(save_trace_path, trace_json);
      std::printf("trace written to %s\n", save_trace_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psdns_submit: %s\n", e.what());
    return 1;
  }
}
