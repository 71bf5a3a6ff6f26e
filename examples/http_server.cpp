// HTTP static-file server with virtine-per-connection isolation (the
// Section 6.3 case study).  Each request is handled by a guest program in a
// fresh virtual context; its only view of the world is the seven
// policy-checked hypercalls (recv/stat/open/read/send/close/exit).
#include <cstdio>
#include <string>

#include "src/base/clock.h"
#include "src/vnet/server.h"
#include "src/wasp/channel.h"
#include "src/wasp/runtime.h"

int main() {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/index.html", std::string("<html><body>hello from a virtine</body></html>"));
  files.PutFile("/data.txt", std::string(2048, 'x'));

  vnet::StaticHttpServer server(&runtime, &files);
  std::printf("handler image: %zu bytes\n", server.keepalive_image().bytes.size());

  const vnet::ServeMode modes[] = {vnet::ServeMode::kNative, vnet::ServeMode::kVirtine,
                                   vnet::ServeMode::kVirtineSnapshot};
  const char* requests[] = {
      "GET /index.html HTTP/1.0\r\n\r\n",
      "GET /data.txt HTTP/1.0\r\n\r\n",
      "GET /missing HTTP/1.0\r\n\r\n",
  };
  for (vnet::ServeMode mode : modes) {
    std::printf("\n--- %s ---\n", vnet::ServeModeName(mode));
    for (const char* request : requests) {
      wasp::ByteChannel channel;
      channel.host().WriteString(request);
      auto stats = server.HandleConnection(channel, mode);
      if (!stats.ok()) {
        std::fprintf(stderr, "serve failed: %s\n", stats.status().ToString().c_str());
        return 1;
      }
      auto response = channel.host().Drain();
      std::string first_line(response.begin(),
                             response.begin() + static_cast<long>(std::min<size_t>(
                                                    response.size(), 24)));
      for (char& c : first_line) {
        if (c == '\r' || c == '\n') {
          c = ' ';
        }
      }
      std::printf("  %-30s -> %-24s (%4zu B", request, first_line.c_str(), response.size());
      if (stats->modeled_cycles > 0) {
        std::printf(", %7.1f us modeled, %llu hypercalls",
                    vbase::CyclesToMicros(stats->modeled_cycles),
                    static_cast<unsigned long long>(stats->io_exits));
      }
      std::printf(")\n");
    }
  }
  return 0;
}
