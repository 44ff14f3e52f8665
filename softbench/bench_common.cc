#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>


namespace softbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[idx];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::Draw(softdb::Rng* rng) const {
  const double u = rng->NextDouble();
  const std::size_t rank = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  const std::size_t n = cdf_.size();
  // 7919 is prime and no domain here is a multiple of it, so r -> r*7919+13
  // mod n is a permutation.
  return (std::min(rank, n - 1) * 7919 + 13) % n;
}

namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::atomic<bool> g_correct{true};

}  // namespace

void Checksum::AddRow(const std::vector<softdb::Value>& row) {
  std::string text;
  char buf[40];
  for (const softdb::Value& v : row) {
    if (v.is_null()) {
      text += "NULL";
    } else if (v.type() == softdb::TypeId::kDouble) {
      std::snprintf(buf, sizeof(buf), "%.9g", v.AsDouble());
      text += buf;
    } else {
      text += v.ToString();
    }
    text += '\x1f';
  }
  const std::uint64_t h = Fnv1a(text);
  ++rows;
  sum += h;
  sum_sq += Mix(h);
}

std::string Checksum::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "rows=%llu sum=%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(sum));
  return buf;
}

Checksum ChecksumOf(const softdb::RowSet& rows) {
  Checksum c;
  for (const auto& row : rows.rows) c.AddRow(row);
  return c;
}

Checksum ChecksumOf(const softdb::Table& table) {
  Checksum c;
  for (softdb::RowId r = 0; r < table.NumSlots(); ++r) {
    if (table.IsLive(r)) c.AddRow(table.GetRow(r));
  }
  return c;
}

void ReportMismatch(const std::string& what) {
  g_correct.store(false);
  std::fprintf(stderr, "softbench: CORRECTNESS FAILURE: %s\n", what.c_str());
}

bool AllCorrect() { return g_correct.load(); }

void Die(const std::string& what) {
  std::fprintf(stderr, "softbench: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace softbench
