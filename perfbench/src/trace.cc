#include "src/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t Tracer::Record(const char* name, uint64_t req, uint64_t parent, uint64_t start_ns,
                        uint64_t end_ns, uint64_t id) {
  if (!enabled()) {
    return 0;
  }
  if (id == 0) {
    id = NewId();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, req, parent, start_ns, std::max(start_ns, end_ns)});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name,id,req,parent,start_ns,end_ns\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%llu,%llu\n", s.name,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.req),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans, const char* name) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) {
      continue;
    }
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      uint64_t cursor = s.start_ns;
      for (const auto& [start, end] : kids) {
        const uint64_t lo = std::max(start, cursor);
        const uint64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

}  // namespace perfbench
