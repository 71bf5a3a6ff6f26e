// Figure 4: latency for echo-server startup milestones in protected mode.
//
// The echo guest runs in the prot32 environment (no paging, as in the
// paper), timestamps main-entry / after-recv / after-send with in-guest
// rdtsc, and ships the milestones back through return_data.
#include <cstring>

#include "bench/bench_util.h"
#include "src/vcc/vcc.h"
#include "src/vrt/samples.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/channel.h"
#include "src/wasp/runtime.h"

int main() {
  benchutil::Header(
      "Figure 4: echo-server startup milestones (protected mode, no paging)",
      "server reaches C code in ~10K cycles; a full HTTP echo round trip completes in "
      "100-500K cycles (<300us) including hypercall-based I/O");

  auto image = vcc::CompileProgram(vrt::VlibcSource() + vrt::EchoMilestonesSource(), "main",
                                   vrt::Env::kProt32);
  VB_CHECK(image.ok(), image.status().ToString());

  constexpr int kTrials = 200;
  const std::string request = "GET /echo HTTP/1.1\r\nHost: tinker\r\n\r\n";
  std::vector<double> entry_c, recv_c, send_c;
  wasp::Runtime runtime;
  for (int t = 0; t < kTrials; ++t) {
    wasp::ByteChannel channel;
    channel.host().WriteString(request);
    wasp::VirtineSpec spec;
    spec.image = &image.value();
    spec.word_bytes = 4;
    spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
    spec.channel = &channel.guest();
    auto outcome = runtime.Invoke(spec);
    VB_CHECK(outcome.status.ok(), outcome.status.ToString());
    VB_CHECK(outcome.output.size() == 12, "missing milestones: " << outcome.output.size());
    uint32_t mb[3];
    std::memcpy(mb, outcome.output.data(), sizeof(mb));
    entry_c.push_back(mb[0]);
    recv_c.push_back(mb[1]);
    send_c.push_back(mb[2]);
    auto echoed = channel.host().Drain();
    VB_CHECK(std::string(echoed.begin(), echoed.end()) == request, "echo mismatch");
  }

  vbase::Table table({"milestone", "mean cycles", "stddev", "mean us"});
  for (const auto& [label, samples] :
       {std::pair<const char*, std::vector<double>*>{"main entry (reached C code)", &entry_c},
        {"request received (recv())", &recv_c},
        {"response sent (send())", &send_c}}) {
    const vbase::Summary s = vbase::Summarize(vbase::TukeyFilter(*samples));
    table.AddRow({label, benchutil::Cycles(s.mean), benchutil::Cycles(s.stddev),
                  benchutil::Us(s.mean)});
  }
  table.Print();
  std::printf("\n%d trials; milestones measured inside the virtual context with rdtsc.\n",
              kTrials);
  const vbase::Summary total = vbase::Summarize(vbase::TukeyFilter(send_c));
  std::printf("end-to-end echo (guest view): %.1f us  => sub-millisecond response: %s\n",
              vbase::CyclesToMicros(static_cast<uint64_t>(total.mean)),
              total.mean < 2.69e6 ? "YES" : "NO");
  return 0;
}
