// Shared fixtures and helpers for the libgus test suite.

#ifndef GUS_TESTS_TEST_UTIL_H_
#define GUS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "rel/relation.h"
#include "util/hash.h"
#include "util/status.h"

namespace gus {
namespace testing {

#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const auto& _st = (expr);                                    \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)          \
  ASSERT_OK_AND_ASSIGN_IMPL(                      \
      GUS_ASSIGN_OR_RETURN_NAME(_r_, __COUNTER__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)     \
  auto tmp = (rexpr);                                  \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();    \
  lhs = std::move(tmp).ValueOrDie();

#define EXPECT_STATUS_CODE(expected_code, expr)             \
  do {                                                      \
    const auto& _st = (expr);                               \
    EXPECT_EQ(::gus::StatusCode::expected_code, _st.code()) \
        << _st.ToString();                                  \
  } while (0)

/// \brief A tiny two-table schema: fact(fk, v) and dim(pk, w).
///
/// fact rows reference dim rows with a configurable fanout, giving small
/// join results whose inclusion probabilities and moments can be computed
/// by brute force.
struct TinyJoinData {
  Relation fact;  // columns: fk (int64), v (float64); base name "F"
  Relation dim;   // columns: pk (int64), w (float64); base name "D"

  Catalog MakeCatalog() const {
    Catalog c;
    c.emplace("F", fact);
    c.emplace("D", dim);
    return c;
  }
};

/// num_dim dim rows; each dim row pk=k matched by `fanout` fact rows.
inline TinyJoinData MakeTinyJoin(int num_dim = 4, int fanout = 2) {
  std::vector<Row> fact_rows;
  std::vector<Row> dim_rows;
  for (int k = 0; k < num_dim; ++k) {
    dim_rows.push_back(Row{Value(int64_t{k}), Value(10.0 + k)});
    for (int f = 0; f < fanout; ++f) {
      fact_rows.push_back(
          Row{Value(int64_t{k}), Value(1.0 + 0.5 * k + 0.25 * f)});
    }
  }
  TinyJoinData data;
  data.fact = Relation::MakeBase(
      "F",
      Schema({{"fk", ValueType::kInt64}, {"v", ValueType::kFloat64}}),
      std::move(fact_rows));
  data.dim = Relation::MakeBase(
      "D", Schema({{"pk", ValueType::kInt64}, {"w", ValueType::kFloat64}}),
      std::move(dim_rows));
  return data;
}

/// Single base relation with values v = 1..n (as float64), name "R".
inline Relation MakeSingleTable(int n, const std::string& name = "R") {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 1; i <= n; ++i) {
    rows.push_back(Row{Value(static_cast<double>(i))});
  }
  return Relation::MakeBase(name, Schema({{"v", ValueType::kFloat64}}),
                            std::move(rows));
}

/// \brief Two distinct two-id lineage rows, (0, 0) and (1, y), whose
/// HashLineageRow values are equal.
///
/// HashCombine(s, v) is Mix64(s ^ (v + k + (s << 6) + (s >> 2))) and Mix64 is
/// a bijection, so the second row collides exactly when its Mix64 argument
/// equals the first row's — which is linear in y, and solved for it here.
inline std::pair<LineageRow, LineageRow> CollidingLineageRows() {
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const uint64_t iv = HashLineageRow(nullptr, 0);
  const uint64_t s0 = HashCombine(iv, 0);
  const uint64_t s1 = HashCombine(iv, 1);
  const uint64_t target = s0 ^ (0 + kGolden + (s0 << 6) + (s0 >> 2));
  const uint64_t y = (s1 ^ target) - kGolden - (s1 << 6) - (s1 >> 2);
  return {LineageRow{0, 0}, LineageRow{1, y}};
}

/// \brief `plan` run on the serial batch pipeline (ExecutePlanColumnar)
/// over a ColumnarCatalog of `catalog`, materialized as a Relation: the
/// plan-level reference the row engine's parity checks compare against.
inline Result<Relation> ExecuteColumnar(
    const PlanPtr& plan, const Catalog& catalog, Rng* rng,
    ExecMode mode = ExecMode::kSampled,
    int64_t batch_rows = kDefaultBatchRows) {
  ColumnarCatalog columnar(&catalog);
  GUS_ASSIGN_OR_RETURN(
      ColumnarRelation result,
      ExecutePlanColumnar(plan, &columnar, rng, mode, batch_rows));
  return Relation(std::move(result));
}

/// \brief A fresh path under the test temp directory, named after `tag`,
/// this process's id and a per-process counter, so concurrent test
/// processes and repeated calls never share a directory. Anything already
/// at the path is removed, and so is the path itself when the process
/// exits normally.
inline std::string UniqueTempDir(const std::string& tag) {
  struct Handed {
    std::mutex mu;
    std::vector<std::string> dirs;
    ~Handed() {
      for (const std::string& dir : dirs) {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Handed handed;
  std::lock_guard<std::mutex> lock(handed.mu);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("gus_" + std::to_string(::getpid()) + "_" + tag + "_" +
        std::to_string(handed.dirs.size())))
          .string();
  std::filesystem::remove_all(dir);
  handed.dirs.push_back(dir);
  return dir;
}

}  // namespace testing
}  // namespace gus

#endif  // GUS_TESTS_TEST_UTIL_H_
