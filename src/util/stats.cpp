#include "util/stats.h"

#include <cstdio>

namespace lepton::util {

std::string format_percentiles(const ReservoirPercentiles& p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p50=%.3f p75=%.3f p95=%.3f p99=%.3f",
                p.percentile(50), p.percentile(75), p.percentile(95),
                p.percentile(99));
  return buf;
}

std::string format_code_tally(const CodeTally& t,
                              std::string (*name)(unsigned code)) {
  std::string out;
  for (unsigned c = 0; c < t.ceiling(); ++c) {
    std::uint64_t n = t.count(c);
    if (n == 0) continue;
    if (!out.empty()) out += "  ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%llu",
                  static_cast<unsigned long long>(n));
    out += name(c);
    out += buf;
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace lepton::util
