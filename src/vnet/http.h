// Minimal HTTP/1.x request parsing and response building (the substrate for
// the paper's echo server, static-file server, and serverless front end).
//
// Keep-alive streams: FrameRequest is the one request parser — it
// consumes exactly one request from the front of a byte stream and reports
// how many bytes it ate, so pipelined/back-to-back requests on one
// connection split at the correct header+body boundaries instead of being
// parsed "one request per buffer".  Smuggling-shaped inputs (conflicting
// Content-Length values, a bare CR inside the head, Transfer-Encoding we do
// not implement) are rejected outright: on a reused connection a framing
// disagreement between two parsers is an attack primitive, not a nit.
#ifndef SRC_VNET_HTTP_H_
#define SRC_VNET_HTTP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace vnet {

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // Case-insensitive header lookup; empty string when absent.
  std::string Header(const std::string& name) const;
  // Case-insensitive presence check; true even for an empty value (which
  // Header() cannot distinguish from an absent header).
  bool HasHeader(const std::string& name) const;
};

// One framed request plus the exact byte count it consumed from the front of
// the stream: data[consumed:] is the start of the next pipelined request.
struct FramedRequest {
  HttpRequest request;
  size_t consumed = 0;
};

// Frames exactly one request off the front of `data`.  Returns
// kFailedPrecondition("incomplete ...") when more bytes are needed — callers
// accumulate and retry — and kInvalidArgument for malformed or
// smuggling-shaped input (the connection should answer 400 and close).
vbase::Result<FramedRequest> FrameRequest(const std::string& data);

// Total byte length (head + declared body) of the first request in `data`,
// available as soon as the head is complete — lets a front end enforce its
// body cap before a single body byte has been read.  kFailedPrecondition
// while the head is still incomplete; kInvalidArgument on a malformed head
// or smuggling-shaped framing headers.
vbase::Result<size_t> RequestBytesNeeded(const std::string& data);

// Keep-alive decision for a parsed request: HTTP/1.1 defaults to persistent
// unless "Connection: close"; HTTP/1.0 is persistent only with an explicit
// "Connection: keep-alive".  Token matching is case-insensitive and
// comma-list-aware.
bool WantKeepAlive(const HttpRequest& request);

// A framed response head (the listener and the socket client both need to
// know where one response ends on a reused connection).
struct HttpResponseHead {
  int status = 0;
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;
  size_t head_bytes = 0;       // bytes through the terminating CRLFCRLF
  uint64_t content_length = 0; // 0 when absent
};

// Frames a response head off the front of `data`.  kFailedPrecondition when
// the terminating CRLFCRLF has not arrived yet; kInvalidArgument on a
// malformed status line or a non-numeric Content-Length.  The full response
// occupies head_bytes + content_length bytes of the stream.
vbase::Result<HttpResponseHead> FrameResponseHead(const std::string& data);

// Serializes a response with Content-Length and the given extra headers.
std::string BuildResponse(int status, const std::string& body,
                          const std::vector<std::pair<std::string, std::string>>& headers = {});

// Same, but with a caller-supplied reason phrase in the status line (the
// serving front end answers guest faults with the FaultKind name, e.g.
// "HTTP/1.1 500 guest-trap", so a client or log scraper can tell an
// isolated guest fault from a host-side failure without a body schema).
// Control characters (including CR/LF) are stripped from the phrase so an
// untrusted detail string can never split the status line into headers.
std::string BuildResponseWithReason(int status, const std::string& reason,
                                    const std::string& body,
                                    const std::vector<std::pair<std::string, std::string>>& headers = {});

// Status reason phrases ("OK", "Not Found", ...).
const char* ReasonPhrase(int status);

}  // namespace vnet

#endif  // SRC_VNET_HTTP_H_
