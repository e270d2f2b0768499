#include "data/tpch_gen.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "rel/column_batch.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace gus {

namespace {

// Stream namespaces for the parallel (gen_threads >= 2) layout: every
// entity row draws from Rng::ForkStream(HashCombine(seed, tag), index) — a
// pure function of (seed, entity, index), so the instance is identical for
// every gen_threads >= 2 and for any worker schedule.
constexpr uint64_t kCustomerStream = 0xC1;
constexpr uint64_t kPartStream = 0xC2;
constexpr uint64_t kOrdersStream = 0xC3;
constexpr uint64_t kLineitemStream = 0xC4;

/// Runs fill(begin, end) over [0, n) on up to `threads` workers (disjoint
/// ranges; fill must only write rows it owns).
void ParallelRows(int threads, int64_t n,
                  const std::function<void(int64_t, int64_t)>& fill) {
  const int workers = static_cast<int>(
      std::min<int64_t>(std::max(1, threads), std::max<int64_t>(n, 1)));
  if (workers <= 1 || n <= 0) {
    fill(0, n);
    return;
  }
  PoolLease pool(workers);
  pool->ParallelForChunked(n, /*chunk=*/1024, workers,
                           [&](int, int64_t b, int64_t e) { fill(b, e); });
}

/// A filled int64 or float64 column.
ColumnData ColumnOf(std::vector<int64_t> values) {
  ColumnData col;
  col.type = ValueType::kInt64;
  col.i64 = std::move(values);
  return col;
}

ColumnData ColumnOf(std::vector<double> values) {
  ColumnData col;
  col.type = ValueType::kFloat64;
  col.f64 = std::move(values);
  return col;
}

template <typename... Values>
std::vector<ColumnData> ColumnsOf(Values... values) {
  std::vector<ColumnData> columns;
  (columns.push_back(ColumnOf(std::move(values))), ...);
  return columns;
}

/// The key column 0, 1, ..., n - 1.
std::vector<int64_t> RowIndexColumn(size_t n) {
  std::vector<int64_t> keys(n);
  std::iota(keys.begin(), keys.end(), int64_t{0});
  return keys;
}

}  // namespace

Catalog TpchData::MakeCatalog() const {
  Catalog catalog;
  catalog.emplace("l", lineitem);
  catalog.emplace("o", orders);
  catalog.emplace("c", customer);
  catalog.emplace("p", part);
  return catalog;
}

TpchData GenerateTpch(const TpchConfig& config) {
  Schema customer_schema({{"c_custkey", ValueType::kInt64},
                          {"c_nationkey", ValueType::kInt64},
                          {"c_acctbal", ValueType::kFloat64}});
  Schema part_schema({{"p_partkey", ValueType::kInt64},
                      {"p_retailprice", ValueType::kFloat64}});
  Schema orders_schema({{"o_orderkey", ValueType::kInt64},
                        {"o_custkey", ValueType::kInt64},
                        {"o_totalprice", ValueType::kFloat64}});
  Schema lineitem_schema({{"l_orderkey", ValueType::kInt64},
                          {"l_linenumber", ValueType::kInt64},
                          {"l_partkey", ValueType::kInt64},
                          {"l_quantity", ValueType::kInt64},
                          {"l_extendedprice", ValueType::kFloat64},
                          {"l_discount", ValueType::kFloat64},
                          {"l_tax", ValueType::kFloat64}});

  ZipfGenerator fanout_zipf(
      static_cast<uint64_t>(config.max_lineitems_per_order),
      config.fanout_zipf_theta);
  ZipfGenerator part_zipf(static_cast<uint64_t>(config.num_parts),
                          config.part_zipf_theta);

  // Every table is generated straight into its columns. The draws of one
  // row happen in column order in both layouts; the key columns c_custkey,
  // p_partkey and o_orderkey are the row index and draw nothing.
  const auto customers = static_cast<size_t>(config.num_customers);
  const auto parts = static_cast<size_t>(config.num_parts);
  const auto orders = static_cast<size_t>(config.num_orders);
  std::vector<int64_t> c_nationkey(customers);
  std::vector<double> c_acctbal(customers);
  const auto draw_customer = [&](size_t c, Rng* rng) {
    c_nationkey[c] = rng->UniformInt(int64_t{0}, int64_t{24});
    c_acctbal[c] = rng->Uniform(-999.99, 9999.99);
  };
  std::vector<double> p_retailprice(parts);
  const auto draw_part = [&](size_t p, Rng* rng) {
    p_retailprice[p] = rng->Uniform(900.0, 2100.0);
  };
  std::vector<int64_t> o_custkey(orders);
  std::vector<double> o_totalprice(orders);
  const auto draw_order = [&](size_t o, Rng* rng) {
    o_custkey[o] = static_cast<int64_t>(
        rng->UniformInt(static_cast<uint64_t>(config.num_customers)));
    o_totalprice[o] = rng->Uniform(1000.0, 500000.0);
  };
  std::vector<int64_t> l_orderkey, l_linenumber, l_partkey, l_quantity;
  std::vector<double> l_extendedprice, l_discount, l_tax;
  const auto resize_lineitem = [&](size_t n) {
    for (auto* col : {&l_orderkey, &l_linenumber, &l_partkey, &l_quantity}) {
      col->resize(n);
    }
    for (auto* col : {&l_extendedprice, &l_discount, &l_tax}) col->resize(n);
  };
  // Rows [at, at + fanout) are the lines of order `o`.
  const auto draw_lines = [&](size_t at, int64_t o, int64_t fanout,
                              Rng* rng) {
    for (int64_t ln = 1; ln <= fanout; ++ln, ++at) {
      l_orderkey[at] = o;
      l_linenumber[at] = ln;
      l_partkey[at] = static_cast<int64_t>(part_zipf.Sample(rng) - 1);
      l_quantity[at] = rng->UniformInt(int64_t{1}, int64_t{50});
      l_extendedprice[at] = rng->Uniform(10.0, 105000.0);
      l_discount[at] = rng->Uniform(0.0, 0.10);
      l_tax[at] = rng->Uniform(0.0, 0.08);
    }
  };

  if (config.gen_threads <= 1) {
    // Legacy serial layout: one generator stream in entity order —
    // bit-identical to every instance this generator has ever produced.
    Rng rng(config.seed);
    for (size_t c = 0; c < customers; ++c) draw_customer(c, &rng);
    for (size_t p = 0; p < parts; ++p) draw_part(p, &rng);
    for (size_t o = 0; o < orders; ++o) draw_order(o, &rng);
    for (size_t o = 0; o < orders; ++o) {
      const auto fanout = static_cast<int64_t>(fanout_zipf.Sample(&rng));
      const size_t at = l_orderkey.size();
      resize_lineitem(at + static_cast<size_t>(fanout));
      draw_lines(at, static_cast<int64_t>(o), fanout, &rng);
    }
  } else {
    // Parallel layout: each row draws from its own forked stream, making
    // every row a pure function of (seed, entity, index) — identical for
    // ALL gen_threads >= 2, independent of worker count and schedule. The
    // per-row draw order matches the serial path; only the stream each
    // draw comes from differs, so this is a different (equally valid)
    // instance of the same distribution.
    const auto forked = [&](uint64_t stream, int64_t n, const auto& draw) {
      const uint64_t base = HashCombine(config.seed, stream);
      ParallelRows(config.gen_threads, n, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          Rng rng = Rng::ForkStream(base, static_cast<uint64_t>(i));
          draw(static_cast<size_t>(i), &rng);
        }
      });
    };
    forked(kCustomerStream, config.num_customers, draw_customer);
    forked(kPartStream, config.num_parts, draw_part);
    forked(kOrdersStream, config.num_orders, draw_order);

    // Lineitem is two-pass because row offsets depend on every earlier
    // order's fanout: pass 1 draws the fanouts, a serial prefix sum fixes
    // the offsets, and pass 2 re-forks each order's stream (re-drawing the
    // fanout to keep the stream position identical) and fills its rows at
    // the known offset.
    std::vector<size_t> offsets(orders + 1, 0);
    forked(kLineitemStream, config.num_orders, [&](size_t o, Rng* rng) {
      offsets[o + 1] = fanout_zipf.Sample(rng);
    });
    for (size_t o = 0; o < orders; ++o) offsets[o + 1] += offsets[o];
    resize_lineitem(offsets.back());
    forked(kLineitemStream, config.num_orders, [&](size_t o, Rng* rng) {
      const auto fanout = static_cast<int64_t>(fanout_zipf.Sample(rng));
      draw_lines(offsets[o], static_cast<int64_t>(o), fanout, rng);
    });
  }

  TpchData data;
  data.lineitem = Relation::MakeBaseFromColumns(
      "l", std::move(lineitem_schema),
      ColumnsOf(std::move(l_orderkey), std::move(l_linenumber),
                std::move(l_partkey), std::move(l_quantity),
                std::move(l_extendedprice), std::move(l_discount),
                std::move(l_tax)));
  data.orders = Relation::MakeBaseFromColumns(
      "o", std::move(orders_schema),
      ColumnsOf(RowIndexColumn(orders), std::move(o_custkey),
                std::move(o_totalprice)));
  data.customer = Relation::MakeBaseFromColumns(
      "c", std::move(customer_schema),
      ColumnsOf(RowIndexColumn(customers), std::move(c_nationkey),
                std::move(c_acctbal)));
  data.part = Relation::MakeBaseFromColumns(
      "p", std::move(part_schema),
      ColumnsOf(RowIndexColumn(parts), std::move(p_retailprice)));
  return data;
}

}  // namespace gus
