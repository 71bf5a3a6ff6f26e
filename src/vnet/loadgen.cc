#include "src/vnet/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/vnet/http.h"

namespace vnet {
namespace {

// Harmonic-mean throughput + latency summary over the collected samples.
void FinalizeLoadResult(LoadResult* result) {
  std::vector<double> rps;
  rps.reserve(result->latencies_us.size());
  for (double lat : result->latencies_us) {
    if (lat > 0) {
      rps.push_back(1e6 / lat);
    }
  }
  result->harmonic_mean_rps = vbase::HarmonicMean(rps);
  result->latency = vbase::Summarize(result->latencies_us);
}

}  // namespace

LoadResult RunClosedLoop(int workers, int requests_per_worker, const RequestFn& fn) {
  LoadResult result;
  std::mutex mu;
  vbase::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::vector<double> local;
      uint64_t local_failures = 0;
      local.reserve(static_cast<size_t>(requests_per_worker));
      for (int i = 0; i < requests_per_worker; ++i) {
        const double latency = fn();
        if (latency < 0) {
          ++local_failures;
        } else {
          local.push_back(latency);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_us.insert(result.latencies_us.end(), local.begin(), local.end());
      result.failures += local_failures;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  result.wall_seconds = static_cast<double>(timer.ElapsedNanos()) / 1e9;
  FinalizeLoadResult(&result);
  return result;
}

namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

// Reads one full response (head + Content-Length body) off the socket into
// *stream, consuming it; leftover bytes stay for the next response.
// Returns the status code, or -1 on transport/framing failure.
int ReadOneResponse(int fd, std::string* stream) {
  char buf[4096];
  while (true) {
    auto head = FrameResponseHead(*stream);
    if (head.ok()) {
      const size_t total = head->head_bytes + head->content_length;
      if (stream->size() >= total) {
        stream->erase(0, total);
        return head->status;
      }
    } else if (head.status().code() != vbase::Code::kFailedPrecondition) {
      return -1;  // malformed response head
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stream->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return -1;  // EOF or error mid-response
  }
}

}  // namespace

LoadResult RunSocketClosedLoop(const SocketLoadOptions& options) {
  LoadResult result;
  std::mutex mu;
  vbase::WallTimer timer;
  const int per_conn = std::max(1, options.requests_per_connection);
  const uint64_t deadline_ns =
      options.duration_s > 0 ? static_cast<uint64_t>(options.duration_s * 1e9) : 0;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(std::max(1, options.clients)));
  for (int c = 0; c < std::max(1, options.clients); ++c) {
    threads.emplace_back([&] {
      std::vector<double> local;
      uint64_t local_failures = 0;
      int budget = options.requests_per_client;
      const auto spent = [&]() -> bool {
        if (deadline_ns > 0) {
          return timer.ElapsedNanos() >= deadline_ns;
        }
        return budget <= 0;
      };
      while (!spent()) {
        const int fd = ConnectLoopback(options.port);
        if (fd < 0) {
          ++local_failures;
          if (deadline_ns == 0) {
            --budget;
          }
          continue;
        }
        std::string stream;
        for (int k = 0; k < per_conn && !spent(); ++k) {
          const bool last = k + 1 == per_conn;
          const std::string request = "GET " + options.target +
                                      " HTTP/1.1\r\nHost: bench\r\n" +
                                      (last ? "Connection: close\r\n" : "") + "\r\n";
          vbase::WallTimer rt;
          int status = -1;
          if (SendAll(fd, request)) {
            status = ReadOneResponse(fd, &stream);
          }
          if (deadline_ns == 0) {
            --budget;
          }
          if (status < 0 || status >= 400) {
            ++local_failures;
            break;  // reconnect: the connection state is unknown
          }
          local.push_back(static_cast<double>(rt.ElapsedNanos()) / 1e3);
        }
        ::close(fd);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_us.insert(result.latencies_us.end(), local.begin(), local.end());
      result.failures += local_failures;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  result.wall_seconds = static_cast<double>(timer.ElapsedNanos()) / 1e9;
  FinalizeLoadResult(&result);
  return result;
}

LaneSchedule::LaneSchedule(int lanes)
    : lane_free_us_(static_cast<size_t>(std::max(lanes, 1)), 0.0) {}

double LaneSchedule::Place(double earliest_start_us, double service_us) {
  // Earliest-free lane, ties broken on index: deterministic for a given
  // placement sequence.
  const size_t lane = static_cast<size_t>(
      std::min_element(lane_free_us_.begin(), lane_free_us_.end()) - lane_free_us_.begin());
  const double done = std::max(earliest_start_us, lane_free_us_[lane]) + service_us;
  lane_free_us_[lane] = done;
  return done;
}

double LaneSchedule::EarliestFree() const {
  return *std::min_element(lane_free_us_.begin(), lane_free_us_.end());
}

LoadResult ClosedLoopVirtualTime(int clients, int lanes,
                                 const std::vector<double>& services_us) {
  LoadResult result;
  const size_t n_clients = static_cast<size_t>(std::max(clients, 1));
  // Earliest-ready client issues the next request; it starts on the
  // earliest-free lane.  Ties break on index, so the schedule (and every
  // latency) is deterministic for a given service vector.
  std::vector<double> client_ready(n_clients, 0.0);
  LaneSchedule schedule(lanes);
  result.latencies_us.reserve(services_us.size());
  double end_us = 0;
  for (const double service : services_us) {
    const size_t c = static_cast<size_t>(
        std::min_element(client_ready.begin(), client_ready.end()) - client_ready.begin());
    if (service < 0) {
      ++result.failures;  // failed request: the client retries immediately
      continue;
    }
    const double done = schedule.Place(client_ready[c], service);
    result.latencies_us.push_back(done - client_ready[c]);
    client_ready[c] = done;
    end_us = std::max(end_us, done);
  }
  result.wall_seconds = end_us / 1e6;  // virtual seconds of the schedule
  FinalizeLoadResult(&result);
  return result;
}

std::vector<double> GenerateArrivalTrace(const std::vector<LoadPhase>& phases,
                                         uint64_t seed) {
  vbase::Rng rng(seed);
  std::vector<double> arrivals_us;
  double t = 0;
  for (const LoadPhase& phase : phases) {
    const double end = t + phase.duration_s * 1e6;
    if (phase.rps <= 0) {
      t = end;
      continue;
    }
    const double gap = 1e6 / phase.rps;
    double at = t;
    while (at < end) {
      arrivals_us.push_back(at + gap * 0.25 * (rng.NextDouble() - 0.5));
      at += gap;
    }
    t = end;
  }
  std::sort(arrivals_us.begin(), arrivals_us.end());
  return arrivals_us;
}

TraceResult ReplayTrace(const std::vector<LoadPhase>& phases, const AsyncRequestFn& fn,
                        uint64_t seed) {
  TraceResult result;
  result.arrivals_us = GenerateArrivalTrace(phases, seed);
  vbase::WallTimer timer;
  std::vector<std::future<double>> futures;
  futures.reserve(result.arrivals_us.size());
  for (size_t i = 0; i < result.arrivals_us.size(); ++i) {
    futures.push_back(fn(i));
  }
  result.service_us.reserve(futures.size());
  std::vector<double> ok_services;
  ok_services.reserve(futures.size());
  for (std::future<double>& f : futures) {
    const double service = f.valid() ? f.get() : -1.0;
    result.service_us.push_back(service);
    if (service < 0) {
      ++result.failures;
    } else {
      ok_services.push_back(service);
    }
  }
  result.wall_seconds = static_cast<double>(timer.ElapsedNanos()) / 1e9;
  result.service = vbase::Summarize(ok_services);
  return result;
}

}  // namespace vnet
