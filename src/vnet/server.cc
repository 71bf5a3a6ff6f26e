#include "src/vnet/server.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/vcc/vcc.h"
#include "src/vnet/http.h"
#include "src/vrt/vlibc.h"

namespace vnet {
namespace {

// Snapshot key of the guest handler: HandleVirtine keys its VirtineSpec
// with it, and snapshot-mode connection jobs carry it as the executor's
// keyed-dequeue affinity hint, so a lane keeps serving the shell whose
// snapshot it just parked.
constexpr const char* kHandlerKey = "http-keepalive-handler";

}  // namespace

std::string KeepAliveHandlerSource() {
  // The static-file guest: one invocation serves every request of its
  // connection, so the shell acquire + snapshot restore is paid once per
  // connection instead of once per request.  A one-request connection costs
  // exactly the paper's seven host interactions (Section 6.3): recv, stat,
  // open, read, send, close, exit.  The request cap arrives as the virtine
  // argument (argc 0 = no cap; a single-shot connection is cap 1).
  //
  // Each iteration frames one request off the channel (a head that does not
  // terminate inside the 2 KB window is answered 413, not truncated),
  // validates it structurally before touching any file (request-line shape,
  // an HTTP/ version token, a colon in every header line, Host on
  // HTTP/1.1), streams the file in 1 KB chunks with the response head in
  // front of the first, streams any Content-Length request body off the
  // channel, and honors Connection: close / keep-alive.  The exit code is
  // the last request's verdict (0 = 200, 1 = 400, 2 = 404, 3 = 413,
  // 4 = 500) and argument-page word 0 holds the connection's tally, so the
  // host accounts per-request statuses without a hypercall.  Framing trust:
  // the host front end (listener or native parser) rejects smuggling-shaped
  // heads before forwarding, so this guest keeps the simple first-match
  // Content-Length scan.
  //
  // Interpreted guest cycles are the per-request currency, so the head is
  // parsed in ONE pass (validity, version, Host, Content-Length, Connection
  // all extracted while the bytes are hot), the terminator search resumes
  // where the previous recv left off, pipelined requests are consumed in
  // place (the window is compacted only when it would overflow), and the
  // 200 response head is cached across the connection's requests (rebuilt
  // only when the path or file size changes).
  return R"vc(
int parse_path(char *req, char *path) {
  int i;
  int j;
  i = 0;
  while (req[i] && req[i] != ' ') {
    i = i + 1;
  }
  if (!req[i]) {
    return -1;
  }
  i = i + 1;
  j = 0;
  while (req[i] && req[i] != ' ' && j < 255) {
    path[j] = req[i];
    i = i + 1;
    j = j + 1;
  }
  path[j] = 0;
  if (j == 0) {
    return -1;
  }
  return j;
}

int vn_lc(int c) {
  if (c >= 'A' && c <= 'Z') {
    return c + 32;
  }
  return c;
}

// Scans [from, n) for CRLFCRLF (the caller backs `from` up 3 bytes so a
// terminator split across recvs is still found).
int vn_headers_end_from(char *req, int from, int n) {
  int i;
  i = from;
  while (i + 3 < n) {
    if (req[i] == 13 && req[i + 1] == 10 && req[i + 2] == 13 && req[i + 3] == 10) {
      return i;
    }
    i = i + 1;
  }
  return 0 - 1;
}

// Single-pass head parse over [0, he).  Fills out[5]:
//   out[0] = head valid (request-line shape + a colon in every header line)
//   out[1] = version is HTTP/1.1
//   out[2] = a Host header is present
//   out[3] = Content-Length value (first match; the host edge rejects
//            conflicting duplicates before forwarding)
//   out[4] = Connection: 0 close, 1 keep-alive, 2 absent (last header wins)
// Returns out[0].
int vn_parse_head(char *req, int he, int *out) {
  int i;
  int ls;
  int colon;
  int nl;
  int v;
  int close_tok;
  int keep_tok;
  out[0] = 0;
  out[1] = 0;
  out[2] = 0;
  out[3] = 0;
  out[4] = 2;
  i = 0;
  while (i < he && req[i] != ' ' && req[i] != 9 && req[i] != 13) {
    i = i + 1;
  }
  if (i == 0 || i >= he || req[i] == 13) {
    return 0;
  }
  while (i < he && (req[i] == ' ' || req[i] == 9)) {
    i = i + 1;
  }
  if (i >= he || req[i] == 13) {
    return 0;
  }
  while (i < he && req[i] != ' ' && req[i] != 9 && req[i] != 13) {
    i = i + 1;
  }
  if (i >= he || req[i] == 13) {
    return 0;
  }
  while (i < he && (req[i] == ' ' || req[i] == 9)) {
    i = i + 1;
  }
  if (i + 4 >= he) {
    return 0;
  }
  if (!(req[i] == 'H' && req[i + 1] == 'T' && req[i + 2] == 'T' && req[i + 3] == 'P' &&
        req[i + 4] == '/')) {
    return 0;
  }
  if (i + 7 < he && req[i + 5] == '1' && req[i + 6] == '.' && req[i + 7] == '1') {
    if (i + 8 >= he || req[i + 8] == 13 || req[i + 8] == ' ' || req[i + 8] == 9) {
      out[1] = 1;
    }
  }
  while (i < he && req[i] != 13) {
    i = i + 1;
  }
  while (i < he) {
    i = i + 2;
    if (i >= he) {
      break;
    }
    ls = i;
    colon = 0 - 1;
    while (i < he && req[i] != 13) {
      if (colon < 0 && req[i] == ':') {
        colon = i;
      }
      i = i + 1;
    }
    if (colon < 0) {
      return 0;
    }
    nl = colon;
    while (nl > ls && (req[nl - 1] == ' ' || req[nl - 1] == 9)) {
      nl = nl - 1;
    }
    nl = nl - ls;
    if (nl == 4 && vn_lc(req[ls]) == 'h' && vn_lc(req[ls + 1]) == 'o' &&
        vn_lc(req[ls + 2]) == 's' && vn_lc(req[ls + 3]) == 't') {
      out[2] = 1;
    }
    if (nl == 14 && vn_lc(req[ls]) == 'c' && vn_lc(req[ls + 1]) == 'o' &&
        vn_lc(req[ls + 2]) == 'n' && vn_lc(req[ls + 3]) == 't' &&
        vn_lc(req[ls + 4]) == 'e' && vn_lc(req[ls + 5]) == 'n' &&
        vn_lc(req[ls + 6]) == 't' && req[ls + 7] == '-' && vn_lc(req[ls + 8]) == 'l' &&
        vn_lc(req[ls + 9]) == 'e' && vn_lc(req[ls + 10]) == 'n' &&
        vn_lc(req[ls + 11]) == 'g' && vn_lc(req[ls + 12]) == 't' &&
        vn_lc(req[ls + 13]) == 'h') {
      v = 0;
      ls = colon + 1;
      while (ls < i && (req[ls] == ' ' || req[ls] == 9)) {
        ls = ls + 1;
      }
      while (ls < i && req[ls] >= '0' && req[ls] <= '9') {
        v = v * 10 + (req[ls] - '0');
        ls = ls + 1;
      }
      out[3] = v;
    }
    if (nl == 10 && vn_lc(req[ls]) == 'c' && vn_lc(req[ls + 1]) == 'o' &&
        vn_lc(req[ls + 2]) == 'n' && vn_lc(req[ls + 3]) == 'n' &&
        vn_lc(req[ls + 4]) == 'e' && vn_lc(req[ls + 5]) == 'c' &&
        vn_lc(req[ls + 6]) == 't' && vn_lc(req[ls + 7]) == 'i' &&
        vn_lc(req[ls + 8]) == 'o' && vn_lc(req[ls + 9]) == 'n') {
      close_tok = 0;
      keep_tok = 0;
      v = colon + 1;
      while (v + 4 < i) {
        if (vn_lc(req[v]) == 'c' && vn_lc(req[v + 1]) == 'l' && vn_lc(req[v + 2]) == 'o' &&
            vn_lc(req[v + 3]) == 's' && vn_lc(req[v + 4]) == 'e') {
          close_tok = 1;
        }
        if (vn_lc(req[v]) == 'k' && vn_lc(req[v + 1]) == 'e' && vn_lc(req[v + 2]) == 'e' &&
            vn_lc(req[v + 3]) == 'p' && req[v + 4] == '-') {
          keep_tok = 1;
        }
        v = v + 1;
      }
      if (close_tok) {
        out[4] = 0;
      } else if (keep_tok) {
        out[4] = 1;
      } else {
        out[4] = 2;
      }
    }
  }
  out[0] = 1;
  return 1;
}

// Serves one parsed request and returns its status.  ph is vn_parse_head's
// output.  sbuf holds the connection's cached 200 head at its front
// (cmeta = [head len, file size, cache valid]; the head is at most 57
// bytes) and file chunks of up to 1 KB right behind it, so the head and
// the first chunk leave in one send.
int vn_serve(char *req, int *ph, char *cpath, char *sbuf, int *cmeta) {
  char path[256];
  char num[24];
  int sz;
  int fd;
  int m;
  int total;
  int want;
  int hl;
  if (!ph[0]) {
    send("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", 47);
    return 400;
  }
  if (ph[1] && !ph[2]) {
    send("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", 47);
    return 400;
  }
  if (parse_path(req, path) < 0) {
    send("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", 47);
    return 400;
  }
  sz = stat_size(path);
  if (sz < 0) {
    send("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", 45);
    return 404;
  }
  if (!cmeta[2] || sz != cmeta[1] || strcmp(path, cpath) != 0) {
    strcpy(sbuf, "HTTP/1.1 200 OK\r\nContent-Length: ");
    itoa(num, sz);
    strcat(sbuf, num);
    strcat(sbuf, "\r\n\r\n");
    cmeta[0] = strlen(sbuf);
    cmeta[1] = sz;
    cmeta[2] = 1;
    strcpy(cpath, path);
  }
  fd = open(path);
  hl = cmeta[0];  // head bytes still to go out ahead of the next chunk
  total = 0;
  while (hl > 0 || total < sz) {
    want = sz - total;
    if (want > 1024) {
      want = 1024;
    }
    m = 0;
    if (want > 0) {
      m = read(fd, sbuf + cmeta[0], want);
      if (m <= 0) {
        // The file changed under the stat: nothing is promised yet if the
        // head is still here, otherwise the body is cut short.
        if (hl > 0) {
          send("HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n", 57);
        }
        close(fd);
        return 500;
      }
    }
    send(sbuf + cmeta[0] - hl, hl + m);
    total = total + m;
    hl = 0;
  }
  close(fd);
  return 200;
}

// Adds one request's status to the connection tally, three 21-bit counts
// in one word: [0, 21) 2xx, [21, 42) 4xx, [42, 63) 5xx.  The default
// watchdog (2e9 instructions) ends a connection long before a count wraps.
int vn_tally(int tally, int st) {
  if (st == 200) {
    return tally + 1;
  }
  if (st == 500) {
    return tally + (1 << 42);
  }
  return tally + (1 << 21);
}

// Ends the connection: the tally goes to argument-page word 0 (harvested
// with the exit, no hypercall of its own) and the exit code carries the
// last request's verdict.
int vn_finish(int tally, int st) {
  int *page;
  int code;
  page = 0;
  page[0] = tally;
  code = 0;
  if (st == 400) {
    code = 1;
  }
  if (st == 404) {
    code = 2;
  }
  if (st == 413) {
    code = 3;
  }
  if (st == 500) {
    code = 4;
  }
  exit(code);
  return code;
}

int main() {
  char req[2048];
  char bbuf[1024];
  char sbuf[1088];
  char cpath[256];
  int cmeta[3];
  int ph[5];
  int *page;
  int cap;
  int served;
  int tally;
  int st;
  int s;
  int n;
  int m;
  int he;
  int sp;
  int body;
  int rem;
  int take;
  int ka;
  // The request cap is the virtine argument: argc (word 1) says whether
  // word 2 holds one.
  page = 0;
  cap = 0;
  if (page[1] > 0) {
    cap = page[2];
  }
  cmeta[0] = 0;
  cmeta[1] = 0;
  cmeta[2] = 0;
  served = 0;
  tally = 0;
  st = 200;
  // req[s, n) holds the bytes received and not yet consumed.
  s = 0;
  n = 0;
  while (1) {
    he = vn_headers_end_from(req, s, n);
    while (he < 0) {
      if (n - s >= 2047) {
        send("HTTP/1.1 413 Payload Too Large\r\nContent-Length: 0\r\n\r\n", 53);
        vn_finish(vn_tally(tally, 413), 413);
      }
      if (n >= 2047) {
        // The window is full but the request starts inside it: move the
        // partial head to the front (memcpy copies forward, so the overlap
        // is safe).
        memcpy(req, req + s, n - s);
        n = n - s;
        s = 0;
      }
      m = recv(req + n, 2047 - n);
      if (m <= 0) {
        if (n == s && served > 0) {
          vn_finish(tally, st);
        }
        send("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", 47);
        vn_finish(vn_tally(tally, 400), 400);
      }
      sp = n - 3;
      if (sp < s) {
        sp = s;
      }
      n = n + m;
      he = vn_headers_end_from(req, sp, n);
    }
    req[n] = 0;
    vn_parse_head(req + s, he - s, ph);
    st = vn_serve(req + s, ph, cpath, sbuf, cmeta);
    tally = vn_tally(tally, st);
    served = served + 1;
    ka = ph[4];
    if (ka == 2) {
      ka = ph[1];
    }
    if (st == 400 || st == 500 || !ka || served == cap) {
      vn_finish(tally, st);
    }
    body = n - (he + 4);
    if (body > ph[3]) {
      body = ph[3];
    }
    rem = ph[3] - body;
    while (rem > 0) {
      take = rem;
      if (take > 1024) {
        take = 1024;
      }
      m = recv(bbuf, take);
      if (m <= 0) {
        vn_finish(tally, st);
      }
      rem = rem - m;
    }
    s = he + 4 + body;
    if (s == n) {
      s = 0;
      n = 0;
    }
  }
  return 0;
}
)vc";
}

std::string StaticHandlerSource() { return KeepAliveHandlerSource(); }

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kNative:
      return "native";
    case ServeMode::kVirtine:
      return "virtine";
    case ServeMode::kVirtineSnapshot:
      return "virtine+snapshot";
  }
  return "?";
}

StaticHttpServer::StaticHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env)
    : runtime_(runtime), env_(env) {
  auto image = vcc::CompileProgram(vrt::VlibcSource() + KeepAliveHandlerSource(), "main",
                                   vrt::Env::kLong64);
  VB_CHECK(image.ok(), "handler failed to compile: " << image.status().ToString());
  keepalive_image_ = std::move(*image);
}

vbase::Result<ServeStats> StaticHttpServer::HandleConnection(wasp::ByteChannel& channel,
                                                             ServeMode mode,
                                                             const ConnectionOptions& conn) {
  switch (mode) {
    case ServeMode::kNative:
      return HandleNative(channel, conn);
    case ServeMode::kVirtine:
      return HandleVirtine(channel, /*snapshot=*/false, conn);
    case ServeMode::kVirtineSnapshot:
      return HandleVirtine(channel, /*snapshot=*/true, conn);
  }
  return vbase::InvalidArgument("bad mode");
}

vbase::Result<ServeStats> StaticHttpServer::HandleNative(wasp::ByteChannel& channel,
                                                         const ConnectionOptions& conn) {
  vbase::WallTimer timer;
  ServeStats stats;
  std::string inbuf;
  std::vector<char> window(std::max<size_t>(conn.read_chunk, 256));
  const auto count = [&stats](int status) {
    stats.status = status;
    ++stats.requests;
    if (status >= 200 && status < 300) {
      ++stats.r2xx;
    } else if (status >= 400 && status < 500) {
      ++stats.r4xx;
    } else if (status >= 500) {
      ++stats.r5xx;
    }
  };
  // Writes an empty-bodied status response; used for every non-200 path.
  const auto respond = [&channel, &count](int status) {
    channel.guest().WriteString(BuildResponse(status, ""));
    count(status);
  };
  bool closing = false;
  while (!closing) {
    // Frame exactly one request with a growable, bounded read loop
    // (replaces the old fixed 2 KB window): accumulate until the head is
    // complete and the declared body has arrived, 413 when either exceeds
    // its cap, 400 on malformed or smuggling-shaped input or a stream that
    // ends mid-request.
    FramedRequest framed;
    bool have_request = false;
    while (!have_request && !closing) {
      auto need = RequestBytesNeeded(inbuf);
      if (need.ok()) {
        // max_body_bytes caps the declared body; the head is already inside
        // max_head_bytes, so the total is the cheap place to enforce it.
        if (*need > conn.max_head_bytes + conn.max_body_bytes) {
          respond(413);
          closing = true;
          break;
        }
        if (inbuf.size() >= *need) {
          auto f = FrameRequest(inbuf);
          if (!f.ok()) {
            respond(400);
            closing = true;
            break;
          }
          framed = std::move(*f);
          have_request = true;
          break;
        }
      } else if (need.status().code() == vbase::Code::kInvalidArgument) {
        respond(400);
        closing = true;
        break;
      } else if (inbuf.size() >= conn.max_head_bytes) {
        // Head still unterminated at the cap: reject rather than truncate.
        respond(413);
        closing = true;
        break;
      }
      const uint64_t n = channel.guest().Read(window.data(), window.size());
      if (n == 0) {
        // Peer closed its write end.  Mid-request bytes mean a truncated
        // request (400); a clean boundary just ends the connection.
        if (!inbuf.empty() || stats.requests == 0) {
          respond(400);
        }
        closing = true;
        break;
      }
      inbuf.append(window.data(), static_cast<size_t>(n));
    }
    if (!have_request) {
      break;
    }
    const HttpRequest& req = framed.request;
    inbuf.erase(0, framed.consumed);
    // Presence check (not value): matches the guest handler's scan, so every
    // ServeMode answers the same bytes with the same status for structural
    // rules.  (Value-level rules the guest does not implement — e.g.
    // Content-Length digit checking — remain host-parser only.)
    if (req.version == "HTTP/1.1" && !req.HasHeader("host")) {
      respond(400);
      break;  // structural 400: do not trust the stream's framing any more
    }
    auto content = env_->GetFile(req.target);
    if (!content.ok()) {
      respond(404);
    } else {
      // Stream the response: head first, then the body in bounded chunks
      // (the unit of incremental I/O — the channel itself is unbounded).
      channel.guest().WriteString("HTTP/1.1 200 OK\r\nContent-Length: " +
                                  std::to_string(content->size()) + "\r\n\r\n");
      for (size_t off = 0; off < content->size(); off += window.size()) {
        const size_t len = std::min(window.size(), content->size() - off);
        channel.guest().Write(content->data() + off, len);
      }
      count(200);
    }
    if (!conn.keep_alive || !WantKeepAlive(req) ||
        (conn.max_requests > 0 &&
         stats.requests >= static_cast<uint64_t>(conn.max_requests))) {
      closing = true;
    }
  }
  stats.wall_ns = timer.ElapsedNanos();
  return stats;
}

vbase::Result<ServeStats> StaticHttpServer::HandleVirtine(wasp::ByteChannel& channel,
                                                          bool snapshot,
                                                          const ConnectionOptions& conn) {
  vbase::WallTimer timer;
  wasp::VirtineSpec spec;
  spec.image = &keepalive_image_;
  spec.key = kHandlerKey;
  spec.mem_size = 1ULL << 20;
  spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo | wasp::MaskOf(wasp::kHcSnapshot);
  // The request cap is the guest's argument, written on every invocation: a
  // warm restore would otherwise replay the capturing run's argument page.
  const uint64_t args[3] = {0, 1, static_cast<uint64_t>(conn.keep_alive ? conn.max_requests : 1)};
  spec.args_page.resize(sizeof(args));
  std::memcpy(spec.args_page.data(), args, sizeof(args));
  spec.use_snapshot = snapshot;
  spec.env = env_;
  spec.channel = &channel.guest();
  wasp::RunOutcome outcome = runtime_->Invoke(spec);
  if (outcome.fault != wasp::FaultKind::kNone) {
    // The guest (not the server) died: its shell is already quarantined.
    // Answer 500 with the fault kind as the reason phrase so the client can
    // tell an isolated guest fault from host-side trouble, and return OK
    // stats — one faulted invocation is a served (if failed) connection,
    // not a server error.
    channel.guest().WriteString(
        BuildResponseWithReason(500, wasp::FaultKindName(outcome.fault), ""));
    ServeStats stats;
    stats.status = 500;
    stats.requests = 1;
    stats.r5xx = 1;
    stats.fault = outcome.fault;
    stats.modeled_cycles = outcome.stats.total_cycles;
    stats.guest_cycles = outcome.stats.guest_cycles;
    stats.io_exits = outcome.stats.io_exits;
    stats.wall_ns = timer.ElapsedNanos();
    return stats;
  }
  if (!outcome.status.ok()) {
    return outcome.status;
  }
  // The guest's tally (three 21-bit counts in argument-page word 0) and its
  // exit code, the last request's verdict.
  static constexpr int kVerdicts[] = {200, 400, 404, 413, 500};
  constexpr uint64_t kCountMask = (1ULL << 21) - 1;
  ServeStats stats;
  stats.r2xx = outcome.result_word & kCountMask;
  stats.r4xx = (outcome.result_word >> 21) & kCountMask;
  stats.r5xx = (outcome.result_word >> 42) & kCountMask;
  stats.requests = stats.r2xx + stats.r4xx + stats.r5xx;
  stats.status = outcome.exit_code < std::size(kVerdicts) ? kVerdicts[outcome.exit_code] : 500;
  stats.modeled_cycles = outcome.stats.total_cycles;
  stats.guest_cycles = outcome.stats.guest_cycles;
  stats.io_exits = outcome.stats.io_exits;
  stats.wall_ns = timer.ElapsedNanos();
  // Strip VM-exit charges to approximate the same handler logic running
  // natively in the host process (Figure 13's baseline denominator).
  const auto& costs = runtime_->options().vm_defaults.guest_costs;
  const uint64_t exit_charges =
      outcome.stats.io_exits * (costs.io_exit + costs.io_entry) + costs.hlt_exit;
  stats.deisolated_cycles =
      outcome.stats.guest_cycles > exit_charges ? outcome.stats.guest_cycles - exit_charges : 0;
  return stats;
}

// --- ConcurrentHttpServer ----------------------------------------------------

ConcurrentHttpServer::ConcurrentHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env,
                                           ConcurrentServerOptions options)
    : options_(options),
      inner_(runtime, env),
      executor_(runtime, [&options] {
        wasp::ExecutorOptions opts;
        opts.workers = options.lanes;
        opts.max_queue_depth = options.max_queue_depth;
        opts.block_when_full = options.block_when_full;
        opts.key_quota = options.key_quota;
        opts.key_quota_overrides = options.key_quota_overrides;
        opts.batch_weight = options.batch_weight;
        opts.recovery = options.recovery;
        return opts;
      }()) {}

std::future<vbase::Result<ServeStats>> ConcurrentHttpServer::SubmitConnection(
    wasp::ByteChannel& channel, ServeMode mode) {
  // Unrouted path: latency class, and the only key is the snapshot-affinity
  // hint — which means every snapshot-mode connection shares one key, so a
  // configured key_quota caps them as a single pool (and sheds 429).  Front
  // ends that want per-tenant quotas use the routed overload below.
  std::string key =
      mode == ServeMode::kVirtineSnapshot ? std::string(kHandlerKey) : std::string();
  return Dispatch(channel, mode, std::move(key), wasp::KeyClass::kLatency,
                  options_.connection);
}

std::future<vbase::Result<ServeStats>> ConcurrentHttpServer::SubmitConnection(
    wasp::ByteChannel& channel, ServeMode mode, const std::string& route) {
  return SubmitConnection(channel, mode, route, options_.connection);
}

std::future<vbase::Result<ServeStats>> ConcurrentHttpServer::SubmitConnection(
    wasp::ByteChannel& channel, ServeMode mode, const std::string& route,
    const ConnectionOptions& conn) {
  auto it = options_.route_classes.find(route);
  const wasp::KeyClass klass =
      it != options_.route_classes.end() ? it->second : wasp::KeyClass::kLatency;
  // The route is the governance key: quota accounting and the affinity scan
  // both group by it.  Note the trade: every snapshot-mode connection still
  // restores the one static-handler snapshot, so distinct route keys give
  // up some cross-route affinity-scan locality in exchange for per-route
  // quota isolation.
  return Dispatch(channel, mode, "route:" + route, klass, conn);
}

std::future<vbase::Result<ServeStats>> ConcurrentHttpServer::Dispatch(
    wasp::ByteChannel& channel, ServeMode mode, std::string key, wasp::KeyClass klass,
    const ConnectionOptions& conn) {
  AtomicCounters& ctr = counters_[static_cast<size_t>(mode)];
  auto done = std::make_shared<std::promise<vbase::Result<ServeStats>>>();
  std::future<vbase::Result<ServeStats>> resolved = done->get_future();
  wasp::Admission admission = wasp::Admission::kAccepted;
  const bool accepted = executor_.TrySubmitTask(
      [this, &channel, mode, conn, done, &ctr]() -> wasp::RunOutcome {
        vbase::Result<ServeStats> stats = inner_.HandleConnection(channel, mode, conn);
        wasp::RunOutcome outcome;
        if (stats.ok()) {
          // Per-request accounting: a keep-alive connection contributes one
          // counter tick per request it served, not one per connection, so
          // RPS math over counters stays mode-comparable.
          ctr.requests.fetch_add(stats->requests, std::memory_order_relaxed);
          if (stats->requests > 1) {
            ctr.keepalive_reused.fetch_add(stats->requests - 1, std::memory_order_relaxed);
          }
          ctr.status_2xx.fetch_add(stats->r2xx, std::memory_order_relaxed);
          ctr.status_4xx.fetch_add(stats->r4xx, std::memory_order_relaxed);
          ctr.status_5xx.fetch_add(stats->r5xx, std::memory_order_relaxed);
          if (stats->fault != wasp::FaultKind::kNone) {
            // Propagate the fault on the task's outcome so the executor
            // classifies this job as faulted (and still releases the route's
            // quota slot — a fault storm must not wedge its key).
            ctr.faulted.fetch_add(1, std::memory_order_relaxed);
            outcome.fault = stats->fault;
          }
          ctr.modeled_cycles.fetch_add(stats->modeled_cycles, std::memory_order_relaxed);
          ctr.io_exits.fetch_add(stats->io_exits, std::memory_order_relaxed);
        } else {
          ctr.errors.fetch_add(1, std::memory_order_relaxed);
        }
        ctr.completed.fetch_add(1, std::memory_order_relaxed);
        done->set_value(std::move(stats));
        return outcome;
      },
      /*future=*/nullptr, std::move(key), klass, &admission);
  if (!accepted) {
    // Load shedding: answer on the submitter's thread so the client sees a
    // well-formed response instead of a silently dropped connection.  The
    // status tells it what to do next: 429 = this route must back off (over
    // its quota, or its circuit breaker is open — the server is fine);
    // 503 = the whole server is overloaded.  A breaker shed adds Retry-After
    // so a well-behaved client knows when to probe again.
    int status = 503;
    std::vector<std::pair<std::string, std::string>> headers;
    if (admission == wasp::Admission::kQuotaExceeded) {
      status = 429;
      ctr.quota_rejected.fetch_add(1, std::memory_order_relaxed);
    } else if (admission == wasp::Admission::kCircuitOpen) {
      status = 429;
      headers.emplace_back("Retry-After", std::to_string(options_.recovery.retry_after_s));
      ctr.breaker_rejected.fetch_add(1, std::memory_order_relaxed);
    } else {
      ctr.rejected.fetch_add(1, std::memory_order_relaxed);
    }
    channel.guest().WriteString(BuildResponse(status, "", headers));
    ServeStats shed;
    shed.status = status;
    done->set_value(shed);
    return resolved;
  }
  ctr.accepted.fetch_add(1, std::memory_order_relaxed);
  return resolved;
}

ServerCounters ConcurrentHttpServer::counters(ServeMode mode) const {
  const AtomicCounters& ctr = counters_[static_cast<size_t>(mode)];
  ServerCounters out;
  out.accepted = ctr.accepted.load(std::memory_order_relaxed);
  out.rejected = ctr.rejected.load(std::memory_order_relaxed);
  out.quota_rejected = ctr.quota_rejected.load(std::memory_order_relaxed);
  out.breaker_rejected = ctr.breaker_rejected.load(std::memory_order_relaxed);
  out.completed = ctr.completed.load(std::memory_order_relaxed);
  out.errors = ctr.errors.load(std::memory_order_relaxed);
  out.faulted = ctr.faulted.load(std::memory_order_relaxed);
  out.status_2xx = ctr.status_2xx.load(std::memory_order_relaxed);
  out.status_4xx = ctr.status_4xx.load(std::memory_order_relaxed);
  out.status_5xx = ctr.status_5xx.load(std::memory_order_relaxed);
  out.requests = ctr.requests.load(std::memory_order_relaxed);
  out.keepalive_reused = ctr.keepalive_reused.load(std::memory_order_relaxed);
  out.modeled_cycles = ctr.modeled_cycles.load(std::memory_order_relaxed);
  out.io_exits = ctr.io_exits.load(std::memory_order_relaxed);
  return out;
}

}  // namespace vnet
