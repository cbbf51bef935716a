#include "analysis/sweep.hpp"

#include <algorithm>
#include <set>
#include <string_view>
#include <thread>

#include "common/backoff.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace lgg::analysis {

Sweep& Sweep::add_range(double lo, double hi, int count) {
  LGG_REQUIRE(count >= 1, "add_range: count >= 1");
  LGG_REQUIRE(lo <= hi, "add_range: lo <= hi");
  for (int i = 0; i < count; ++i) {
    const double p =
        count == 1 ? lo
                   : lo + (hi - lo) * static_cast<double>(i) /
                         static_cast<double>(count - 1);
    // Nearby parameters can round to the same printed label; suffix the
    // point index so every row stays distinguishable in tables and CSV.
    std::string label = Table::format_cell(p);
    const auto taken = [this](const std::string& l) {
      return std::any_of(points_.begin(), points_.end(),
                         [&l](const SweepPoint& pt) { return pt.label == l; });
    };
    if (taken(label)) {
      label += '#';
      label += std::to_string(points_.size());
    }
    add_point(std::move(label), p);
  }
  return *this;
}

std::vector<SweepRow> Sweep::run(ThreadPool& pool, int replicates,
                                 std::uint64_t master_seed,
                                 const Measure& measure,
                                 const RetryPolicy& retry) const {
  LGG_REQUIRE(replicates >= 1, "Sweep::run: replicates >= 1");
  LGG_REQUIRE(static_cast<bool>(measure), "Sweep::run: empty measure");
  LGG_REQUIRE(retry.max_attempts >= 1, "Sweep::run: max_attempts >= 1");
  {
    std::set<std::string_view> labels;
    for (const SweepPoint& pt : points_) {
      LGG_REQUIRE(labels.insert(pt.label).second,
                  "Sweep::run: duplicate point label '" + pt.label + "'");
    }
  }
  std::vector<SweepRow> rows(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    rows[i].point = points_[i];
  }
  // Flatten (point, replicate) into one parallel index space so small
  // sweeps still use every worker.  Results land in flat buffers; rows are
  // assembled afterwards so a throwing replicate only loses its own cell.
  const std::size_t total =
      points_.size() * static_cast<std::size_t>(replicates);
  std::vector<double> values(total, 0.0);
  std::vector<char> ok(total, 0);
  std::vector<std::string> errors(total);
  std::vector<int> attempts(total, 0);
  parallel_for(pool, total, [&](std::size_t flat) {
    common::Backoff backoff(retry.backoff_initial.count(),
                            retry.backoff_max.count());
    for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
      if (attempt > 0) {
        const std::chrono::milliseconds pause(backoff.next());
        if (pause.count() > 0) std::this_thread::sleep_for(pause);
      }
      // Attempt 0 keeps the historical flat-index seed; retries shift by
      // whole `total` strides, so they collide with no other replicate's
      // stream at any attempt.
      const std::size_t p = flat / static_cast<std::size_t>(replicates);
      const std::uint64_t seed = derive_seed(
          master_seed, static_cast<std::uint64_t>(
                           flat + total * static_cast<std::size_t>(attempt)));
      ++attempts[flat];
      try {
        values[flat] = measure(points_[p].parameter, seed);
        ok[flat] = 1;
        return;
      } catch (const std::exception& e) {
        errors[flat] = e.what();
      } catch (...) {
        errors[flat] = "unknown exception";
      }
    }
  });
  for (std::size_t p = 0; p < points_.size(); ++p) {
    SweepRow& row = rows[p];
    for (int k = 0; k < replicates; ++k) {
      const std::size_t flat =
          p * static_cast<std::size_t>(replicates) +
          static_cast<std::size_t>(k);
      row.attempts += attempts[flat];
      if (ok[flat] != 0) {
        row.samples.push_back(values[flat]);
      } else {
        ++row.failed_replicates;
        row.failures.push_back({k, errors[flat], attempts[flat]});
      }
    }
    row.summary = summarize(row.samples);
  }
  return rows;
}

Table rows_to_table(const std::vector<SweepRow>& rows,
                    const std::string& parameter_header,
                    const std::string& value_header) {
  Table table({parameter_header, value_header + " mean",
               value_header + " stddev", "min", "max", "replicates",
               "failed", "attempts"});
  for (const SweepRow& row : rows) {
    table.add(row.point.label, row.summary.mean, row.summary.stddev,
              row.summary.min, row.summary.max,
              static_cast<std::int64_t>(row.summary.count),
              static_cast<std::int64_t>(row.failed_replicates),
              static_cast<std::int64_t>(row.attempts));
  }
  return table;
}

}  // namespace lgg::analysis
