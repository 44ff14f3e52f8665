// Shared helpers of the softbench driver: clocks, order statistics, seeded
// samplers, order-insensitive result checksums and the run-wide
// correctness flag.
#ifndef SOFTBENCH_BENCH_COMMON_H_
#define SOFTBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace softbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1/(r+1)^s.
/// Ranks map to domain values through a fixed permutation so that the hot
/// values are scattered over the domain instead of clustered at its start.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Draw(softdb::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Order-insensitive multiset checksum of result rows. Doubles are rounded
/// to 9 significant digits so engines that sum in different orders agree.
struct Checksum {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;

  void AddRow(const std::vector<softdb::Value>& row);
  bool operator==(const Checksum& o) const {
    return rows == o.rows && sum == o.sum && sum_sq == o.sum_sq;
  }
  bool operator!=(const Checksum& o) const { return !(*this == o); }
  std::string ToString() const;
};

Checksum ChecksumOf(const softdb::RowSet& rows);
/// Checksum of every live row of a table, read through the storage API.
Checksum ChecksumOf(const softdb::Table& table);

/// Records a correctness failure (printed to stderr at once). The run
/// goes on so every failure of the run is reported; the final result then
/// carries "correct": false.
void ReportMismatch(const std::string& what);
bool AllCorrect();

/// Aborts the run without a result: set-up or harness failures that leave
/// nothing to measure.
[[noreturn]] void Die(const std::string& what);

}  // namespace softbench

#endif  // SOFTBENCH_BENCH_COMMON_H_
