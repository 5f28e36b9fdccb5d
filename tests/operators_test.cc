// Tests for the pipelined operators, cross-checked against the
// ReferenceExecutor (independent implementation).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "exec/operators.h"
#include "exec/reference_executor.h"
#include "qpipe/fifo_buffer.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

/// Runs `plan` through the pipelined operators with plain FIFO wiring on
/// dedicated threads (no stages involved) and materializes the output.
class PipelineRunner {
 public:
  explicit PipelineRunner(Database* db) : db_(db) {}

  StatusOr<ResultSet> Run(const PlanNodeRef& plan) {
    ExecContext ctx;
    auto source = Launch(plan, &ctx);
    ResultSet result(plan->output_schema());
    while (PageRef page = source->Next()) result.AppendPage(*page);
    Status st = source->FinalStatus();
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (!st.ok()) return st;
    return result;
  }

 private:
  PageSourceRef Launch(const PlanNodeRef& node, ExecContext* ctx) {
    auto out = std::make_shared<FifoBuffer>();
    switch (node->kind()) {
      case PlanKind::kScan: {
        auto* scan = static_cast<const ScanNode*>(node.get());
        Table* table = db_->catalog()->GetTable(scan->table_name()).value();
        threads_.emplace_back([=] {
          RunScan(*scan, table, nullptr, ctx, out.get());
        });
        break;
      }
      case PlanKind::kJoin: {
        auto* join = static_cast<const JoinNode*>(node.get());
        auto build = Launch(join->build(), ctx);
        auto probe = Launch(join->probe(), ctx);
        threads_.emplace_back([=] {
          RunHashJoin(*join, build.get(), probe.get(), ctx, out.get());
        });
        break;
      }
      case PlanKind::kAggregate: {
        auto* agg = static_cast<const AggregateNode*>(node.get());
        auto input = Launch(agg->child(), ctx);
        threads_.emplace_back([=] {
          RunHashAggregate(*agg, input.get(), ctx, out.get());
        });
        break;
      }
      case PlanKind::kSort: {
        auto* sort = static_cast<const SortNode*>(node.get());
        auto input = Launch(sort->child(), ctx);
        threads_.emplace_back([=] {
          RunSort(*sort, input.get(), ctx, out.get());
        });
        break;
      }
    }
    return out;
  }

  Database* db_;
  std::vector<std::thread> threads_;
};

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    // "fact": 3000 rows, fk = id % 50, val = id * 0.5
    Schema fact_schema({Column::Int64("id"), Column::Int64("fk"),
                        Column::Double("val")});
    auto t = db_->catalog()->CreateTable("fact", fact_schema,
                                         db_->buffer_pool());
    ASSERT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < 3000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetInt64(1, i % 50).SetDouble(
          2, double(i) * 0.5);
    }
    ASSERT_TRUE(appender.Finish().ok());

    // "dim": 50 rows, dk = 0..49, name = D<k%7>
    Schema dim_schema({Column::Int64("dk"), Column::String("name", 4)});
    auto d = db_->catalog()->CreateTable("dim", dim_schema,
                                         db_->buffer_pool());
    ASSERT_TRUE(d.ok());
    TableAppender dim_appender(d.value());
    for (int64_t k = 0; k < 50; ++k) {
      auto row = dim_appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, k).SetString(1, "D" + std::to_string(k % 7));
    }
    ASSERT_TRUE(dim_appender.Finish().ok());
  }

  void CheckAgainstReference(const PlanNodeRef& plan) {
    ReferenceExecutor ref(db_->catalog());
    auto want = ref.Execute(*plan);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    PipelineRunner runner(db_.get());
    auto got = runner.Run(plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectResultsEquivalent(want.value(), got.value());
  }

  Schema FactSchema() {
    return db_->catalog()->GetTable("fact").value()->schema();
  }
  Schema DimSchema() {
    return db_->catalog()->GetTable("dim").value()->schema();
  }

  PlanNodeRef FactScan(ExprRef pred) {
    return std::make_shared<ScanNode>("fact", FactSchema(), std::move(pred),
                                      std::vector<std::size_t>{0, 1, 2});
  }
  PlanNodeRef DimScan(ExprRef pred) {
    return std::make_shared<ScanNode>("dim", DimSchema(), std::move(pred),
                                      std::vector<std::size_t>{0, 1});
  }

  /// "signed": 4000 rows with negative values, a string key of 37
  /// distinct tags and an integer key of 1500 distinct groups.
  PlanNodeRef SignedScan(ExprRef pred) {
    if (!db_->catalog()->GetTable("signed").ok()) {
      Schema schema({Column::Int64("id"), Column::String("tag", 6),
                     Column::Double("val"), Column::Int64("grp")});
      auto t = db_->catalog()->CreateTable("signed", schema,
                                           db_->buffer_pool());
      EXPECT_TRUE(t.ok());
      TableAppender appender(t.value());
      for (int64_t i = 0; i < 4000; ++i) {
        auto row = appender.AppendRow();
        EXPECT_TRUE(row.ok());
        row.value()
            .SetInt64(0, i)
            .SetString(1, "T" + std::to_string(i * 7 % 37))
            .SetDouble(2, double(i % 201 - 100) * 0.37)
            .SetInt64(3, i % 1500);
      }
      EXPECT_TRUE(appender.Finish().ok());
    }
    Schema schema = db_->catalog()->GetTable("signed").value()->schema();
    return std::make_shared<ScanNode>("signed", schema, std::move(pred),
                                      std::vector<std::size_t>{0, 1, 2, 3});
  }

  /// Row-order-independent and bit-exact: every row's raw bytes, sorted
  /// (ExpectResultsEquivalent compares doubles printed to 6 digits).
  static std::vector<std::string> RawRows(const ResultSet& rs) {
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < rs.num_rows(); ++i) {
      const auto* data = reinterpret_cast<const char*>(rs.Row(i).data());
      rows.emplace_back(data, rs.schema().row_width());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Runs `plan` (an aggregate) through the pipelined operators and checks
  /// it against the reference bit for bit; returns the reference result.
  ResultSet CheckAggBitExact(const PlanNodeRef& plan) {
    ReferenceExecutor ref(db_->catalog());
    auto want = ref.Execute(*plan);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    PipelineRunner runner(db_.get());
    auto got = runner.Run(plan);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!want.ok() || !got.ok()) return ResultSet();
    EXPECT_EQ(RawRows(want.value()), RawRows(got.value()));
    return std::move(want).value();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(OperatorsTest, ScanUnfilteredMatchesReference) {
  CheckAgainstReference(FactScan(TruePredicate()));
}

TEST_F(OperatorsTest, ScanFilteredMatchesReference) {
  CheckAgainstReference(FactScan(
      Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{777}))));
}

TEST_F(OperatorsTest, ScanEmptyResult) {
  auto plan = FactScan(
      Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{-1})));
  PipelineRunner runner(db_.get());
  auto got = runner.Run(plan);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().num_rows(), 0u);
}

TEST_F(OperatorsTest, ScanProjectionReorders) {
  auto plan = std::make_shared<ScanNode>("fact", FactSchema(),
                                         TruePredicate(),
                                         std::vector<std::size_t>{2, 0});
  CheckAgainstReference(plan);
}

TEST_F(OperatorsTest, HashJoinMatchesReference) {
  auto join = std::make_shared<JoinNode>(DimScan(TruePredicate()),
                                         FactScan(TruePredicate()), 0, 1);
  CheckAgainstReference(join);
}

TEST_F(OperatorsTest, HashJoinWithSelectiveBuildSide) {
  auto join = std::make_shared<JoinNode>(
      DimScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{5}))),
      FactScan(TruePredicate()), 0, 1);
  CheckAgainstReference(join);
}

TEST_F(OperatorsTest, HashJoinEmptyBuildSide) {
  auto join = std::make_shared<JoinNode>(
      DimScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{0}))),
      FactScan(TruePredicate()), 0, 1);
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(join));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().num_rows(), 0u);
}

TEST_F(OperatorsTest, AggregateGroupedMatchesReference) {
  auto agg = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{1},
      std::vector<AggSpec>{
          AggSpec::Sum(Col(2, ValueType::kDouble), "sum_val"),
          AggSpec::Avg(Col(2, ValueType::kDouble), "avg_val"),
          AggSpec::Min(Col(2, ValueType::kDouble), "min_val"),
          AggSpec::Max(Col(2, ValueType::kDouble), "max_val"),
          AggSpec::Count("n")});
  CheckAgainstReference(agg);
}

TEST_F(OperatorsTest, AggregateGlobalMatchesReference) {
  auto agg = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(Col(0, ValueType::kInt64), "s"),
                           AggSpec::Count("n")});
  CheckAgainstReference(agg);
}

TEST_F(OperatorsTest, AggregateCorrectSums) {
  auto agg = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(Col(0, ValueType::kInt64), "s"),
                           AggSpec::Count("n")});
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(agg));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(got.value().Row(0).GetDouble(0), 3000.0 * 2999.0 / 2.0);
  EXPECT_EQ(got.value().Row(0).GetInt64(1), 3000);
}

// RunHashAggregate on inputs Q1 never produces, bit-exact against the
// reference executor.

ExprRef SignedVal() { return Col(2, ValueType::kDouble); }

TEST_F(OperatorsTest, AggregateWithoutGroupByIsBitExact) {
  CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(SignedVal(), "s"),
                           AggSpec::Avg(SignedVal(), "a"),
                           AggSpec::Min(SignedVal(), "lo"),
                           AggSpec::Max(SignedVal(), "hi"),
                           AggSpec::Count("n")}));
}

TEST_F(OperatorsTest, AggregateStringKeysIsBitExact) {
  ResultSet want = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{1},
      std::vector<AggSpec>{AggSpec::Sum(SignedVal(), "s"),
                           AggSpec::Count("n")}));
  EXPECT_EQ(want.num_rows(), 37u);
}

TEST_F(OperatorsTest, AggregateThousandsOfGroupsGrowTheTable) {
  // 1500 and then 4000 groups: the group table doubles many times over.
  ResultSet by_grp = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{3},
      std::vector<AggSpec>{AggSpec::Sum(SignedVal(), "s"),
                           AggSpec::Max(SignedVal(), "hi")}));
  EXPECT_EQ(by_grp.num_rows(), 1500u);
  ResultSet by_two = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{1, 0},
      std::vector<AggSpec>{AggSpec::Avg(SignedVal(), "a")}));
  EXPECT_EQ(by_two.num_rows(), 4000u);
}

TEST_F(OperatorsTest, AggregateMinMaxOverNegativeValues) {
  ResultSet want = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{1},
      std::vector<AggSpec>{
          AggSpec::Min(SignedVal(), "lo"), AggSpec::Max(SignedVal(), "hi"),
          AggSpec::Max(Arith(ArithOp::kSub, Lit(-50.0), SignedVal()),
                       "neg_hi")}));
  ASSERT_GT(want.num_rows(), 0u);
  for (std::size_t i = 0; i < want.num_rows(); ++i) {
    EXPECT_LT(want.Row(i).GetDouble(1), 0.0);
  }
}

TEST_F(OperatorsTest, AggregateCountOnly) {
  ResultSet grouped = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{3},
      std::vector<AggSpec>{AggSpec::Count("n")}));
  EXPECT_EQ(grouped.num_rows(), 1500u);
  ResultSet global = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Count("n"), AggSpec::Count("m")}));
  ASSERT_EQ(global.num_rows(), 1u);
  EXPECT_EQ(global.Row(0).GetInt64(0), 4000);
}

TEST_F(OperatorsTest, AggregateEmptyInputHasNoGroups) {
  auto none = Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{-1}));
  for (auto group_by : {std::vector<std::size_t>{}, {1}}) {
    ResultSet want = CheckAggBitExact(std::make_shared<AggregateNode>(
        SignedScan(none), group_by,
        std::vector<AggSpec>{AggSpec::Min(SignedVal(), "lo"),
                             AggSpec::Count("n")}));
    EXPECT_EQ(want.num_rows(), 0u);
  }
}

TEST_F(OperatorsTest, AggregateSkipsEmptyPages) {
  // Feed the scan's rows as pages of 1..9 rows with an empty page before
  // and after each one, straight into RunHashAggregate.
  auto agg = std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{1},
      std::vector<AggSpec>{AggSpec::Sum(SignedVal(), "s"),
                           AggSpec::Min(SignedVal(), "lo"),
                           AggSpec::Count("n")});
  ReferenceExecutor ref(db_->catalog());
  auto rows = ref.Execute(*agg->child());
  ASSERT_TRUE(rows.ok());
  const std::size_t width = rows.value().schema().row_width();
  std::vector<PageRef> pages;
  for (std::size_t r = 0, k = 0; r < rows.value().num_rows(); ++k) {
    pages.push_back(std::make_shared<RowPage>(width));
    auto page = std::make_shared<RowPage>(width, (1 + k % 9) * width);
    while (!page->full() && r < rows.value().num_rows()) {
      page->AppendRow(rows.value().Row(r++).data());
    }
    pages.push_back(std::move(page));
  }
  pages.push_back(std::make_shared<RowPage>(width));
  FifoBuffer in(pages.size());
  ASSERT_TRUE(in.PutBatch(std::move(pages)));
  in.Close(Status::OK());
  FifoBuffer out(1024);
  ExecContext ctx;
  ASSERT_TRUE(RunHashAggregate(*agg, &in, &ctx, &out).ok());
  ResultSet got(agg->output_schema());
  while (PageRef page = out.Next()) got.AppendPage(*page);
  auto want = ref.Execute(*agg);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(RawRows(want.value()), RawRows(got));
}

TEST_F(OperatorsTest, AggregatesOverOneInputExpressionShareIt) {
  // Separately built, canonically equal inputs (Q1's sum_qty/avg_qty
  // pattern), next to a different one.
  auto disc = [] {
    return Arith(ArithOp::kMul, SignedVal(),
                 Arith(ArithOp::kSub, Lit(1.0), Lit(0.05)));
  };
  CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{1},
      std::vector<AggSpec>{
          AggSpec::Sum(disc(), "s"), AggSpec::Avg(disc(), "a"),
          AggSpec::Min(disc(), "lo"), AggSpec::Max(disc(), "hi"),
          AggSpec::Sum(SignedVal(), "s_val"),
          AggSpec::Sum(SignedVal(), "s_val2")}));
}

TEST_F(OperatorsTest, AggregateInputsDifferingPastSixDigitsStayApart) {
  // 1.0 and 1.0000001 print alike to 6 significant digits; the two sums
  // must still be kept apart.
  auto scaled = [](double factor) {
    return Arith(ArithOp::kMul, SignedVal(), Lit(factor));
  };
  ResultSet want = CheckAggBitExact(std::make_shared<AggregateNode>(
      SignedScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(scaled(1.0000001), "s_wide"),
                           AggSpec::Sum(scaled(1.0), "s_one"),
                           AggSpec::Max(scaled(1.0000001), "hi_wide"),
                           AggSpec::Max(scaled(1.0), "hi_one")}));
  ASSERT_EQ(want.num_rows(), 1u);
  EXPECT_NE(want.Row(0).GetDouble(0), want.Row(0).GetDouble(1));
  EXPECT_NE(want.Row(0).GetDouble(2), want.Row(0).GetDouble(3));
}

TEST_F(OperatorsTest, SortAscendingMatchesReference) {
  auto sort = std::make_shared<SortNode>(
      FactScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64),
                   Lit(int64_t{500}))),
      std::vector<SortKey>{{2, false}, {0, true}});
  CheckAgainstReference(sort);
}

TEST_F(OperatorsTest, SortProducesOrderedOutput) {
  auto sort = std::make_shared<SortNode>(FactScan(TruePredicate()),
                                         std::vector<SortKey>{{0, false}});
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(sort));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().num_rows(), 3000u);
  for (std::size_t i = 1; i < got.value().num_rows(); ++i) {
    EXPECT_GE(got.value().Row(i - 1).GetInt64(0),
              got.value().Row(i).GetInt64(0));
  }
}

TEST_F(OperatorsTest, JoinAggPipelineMatchesReference) {
  auto join = std::make_shared<JoinNode>(DimScan(TruePredicate()),
                                         FactScan(TruePredicate()), 0, 1);
  std::size_t name_col = join->output_schema().ColumnIndex("name").value();
  std::size_t val_col = join->output_schema().ColumnIndex("val").value();
  auto agg = std::make_shared<AggregateNode>(
      join, std::vector<std::size_t>{name_col},
      std::vector<AggSpec>{
          AggSpec::Sum(Col(val_col, ValueType::kDouble), "sum_val"),
          AggSpec::Count("n")});
  CheckAgainstReference(agg);
}

TEST_F(OperatorsTest, CancelledScanAborts) {
  auto plan = FactScan(TruePredicate());
  auto* scan = static_cast<const ScanNode*>(plan.get());
  Table* table = db_->catalog()->GetTable("fact").value();
  ExecContext ctx;
  ctx.Cancel();
  FifoBuffer out;
  Status st = RunScan(*scan, table, nullptr, &ctx, &out);
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_EQ(out.Next(), nullptr);
  EXPECT_EQ(out.FinalStatus().code(), StatusCode::kAborted);
}

TEST_F(OperatorsTest, AbandonedConsumerStopsProducer) {
  auto plan = FactScan(TruePredicate());
  auto* scan = static_cast<const ScanNode*>(plan.get());
  Table* table = db_->catalog()->GetTable("fact").value();
  ExecContext ctx;
  auto out = std::make_shared<FifoBuffer>(2);
  out->CancelReader();
  Status st = RunScan(*scan, table, nullptr, &ctx, out.get());
  EXPECT_EQ(st.code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace sharing
