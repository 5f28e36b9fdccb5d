// Unit tests for the expression library: evaluation semantics and the
// canonical forms SP matching depends on.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "common/random.h"
#include "exec/expr.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace sharing {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : schema_({Column::Int64("i"), Column::Double("d"),
                 Column::DateCol("t"), Column::String("s", 8)}),
        row_(schema_.row_width()) {
    RowWriter w(row_.data(), &schema_);
    w.SetInt64(0, 10)
        .SetDouble(1, 2.5)
        .SetDate(2, MakeDate(1994, 3, 15))
        .SetString(3, "BRAND");
  }

  TupleRef Row() const { return TupleRef(row_.data(), &schema_); }

  ExprRef IntCol() const { return Col(0, ValueType::kInt64); }
  ExprRef DblCol() const { return Col(1, ValueType::kDouble); }
  ExprRef DateCol() const { return Col(2, ValueType::kDate); }
  ExprRef StrCol() const { return Col(3, ValueType::kString); }

  Schema schema_;
  std::vector<uint8_t> row_;
};

TEST_F(ExprTest, ColumnEval) {
  EXPECT_EQ(IntCol()->EvalInt64(Row()), 10);
  EXPECT_DOUBLE_EQ(DblCol()->EvalDouble(Row()), 2.5);
  EXPECT_EQ(StrCol()->EvalString(Row()), "BRAND");
}

TEST_F(ExprTest, LiteralEval) {
  EXPECT_EQ(Lit(int64_t{7})->EvalInt64(Row()), 7);
  EXPECT_DOUBLE_EQ(Lit(3.25)->EvalDouble(Row()), 3.25);
  EXPECT_EQ(Lit("xyz")->EvalString(Row()), "xyz");
}

TEST_F(ExprTest, IntComparisonIsExact) {
  EXPECT_TRUE(Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{10}))->EvalBool(Row()));
  EXPECT_FALSE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{10}))->EvalBool(Row()));
  EXPECT_TRUE(Cmp(CmpOp::kLe, IntCol(), Lit(int64_t{10}))->EvalBool(Row()));
  EXPECT_TRUE(Cmp(CmpOp::kNe, IntCol(), Lit(int64_t{11}))->EvalBool(Row()));
}

TEST_F(ExprTest, MixedNumericComparisonUsesDouble) {
  // 10 (int) > 2.5 (double)
  EXPECT_TRUE(Cmp(CmpOp::kGt, IntCol(), DblCol())->EvalBool(Row()));
}

TEST_F(ExprTest, DateComparison) {
  EXPECT_TRUE(
      Cmp(CmpOp::kGe, DateCol(), Lit(MakeDate(1994, 1, 1)))->EvalBool(Row()));
  EXPECT_FALSE(
      Cmp(CmpOp::kGt, DateCol(), Lit(MakeDate(1998, 1, 1)))->EvalBool(Row()));
}

TEST_F(ExprTest, StringComparisonTrimsPadding) {
  // The stored field is "BRAND   " (padded to 8); comparison must use the
  // trimmed value.
  EXPECT_TRUE(Cmp(CmpOp::kEq, StrCol(), Lit("BRAND"))->EvalBool(Row()));
  EXPECT_TRUE(Cmp(CmpOp::kLt, StrCol(), Lit("CANDY"))->EvalBool(Row()));
}

TEST_F(ExprTest, BetweenInclusive) {
  EXPECT_TRUE(
      Between(IntCol(), int64_t{10}, int64_t{20})->EvalBool(Row()));
  EXPECT_TRUE(
      Between(IntCol(), int64_t{5}, int64_t{10})->EvalBool(Row()));
  EXPECT_FALSE(
      Between(IntCol(), int64_t{11}, int64_t{20})->EvalBool(Row()));
}

TEST_F(ExprTest, LogicalConnectives) {
  ExprRef t = Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{10}));
  ExprRef f = Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{11}));
  EXPECT_TRUE(And(t, t)->EvalBool(Row()));
  EXPECT_FALSE(And(t, f)->EvalBool(Row()));
  EXPECT_TRUE(Or(f, t)->EvalBool(Row()));
  EXPECT_FALSE(Or(f, f)->EvalBool(Row()));
  EXPECT_TRUE(Not(f)->EvalBool(Row()));
}

TEST_F(ExprTest, ArithInt) {
  EXPECT_EQ(Arith(ArithOp::kAdd, IntCol(), Lit(int64_t{5}))->EvalInt64(Row()),
            15);
  EXPECT_EQ(Arith(ArithOp::kSub, IntCol(), Lit(int64_t{5}))->EvalInt64(Row()),
            5);
  EXPECT_EQ(Arith(ArithOp::kMul, IntCol(), Lit(int64_t{5}))->EvalInt64(Row()),
            50);
  EXPECT_EQ(Arith(ArithOp::kDiv, IntCol(), Lit(int64_t{3}))->EvalInt64(Row()),
            3);
  EXPECT_EQ(Arith(ArithOp::kMod, IntCol(), Lit(int64_t{3}))->EvalInt64(Row()),
            1);
}

TEST_F(ExprTest, ArithDoublePropagates) {
  ExprRef e = Arith(ArithOp::kMul, DblCol(), Lit(int64_t{4}));
  EXPECT_EQ(e->output_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(e->EvalDouble(Row()), 10.0);
}

TEST_F(ExprTest, Q1StyleExpression) {
  // extprice * (1 - discount) with extprice=2.5(col d), discount=0.0...
  ExprRef e = Arith(ArithOp::kMul, DblCol(),
                    Arith(ArithOp::kSub, Lit(1.0), Lit(0.2)));
  EXPECT_NEAR(e->EvalDouble(Row()), 2.0, 1e-12);
}

TEST_F(ExprTest, TruePredicateAlwaysTrue) {
  EXPECT_TRUE(TruePredicate()->EvalBool(Row()));
}

// ---------------------------------------------------------------------------
// Batched evaluation: EvalDoubleBatch must equal n EvalDouble calls, bit
// for bit (hash aggregation depends on it to match the reference).
// ---------------------------------------------------------------------------

/// Random numeric expression of exactly `depth` levels along its left
/// spine: columns and literals of every numeric type (zeros included, so
/// kDiv and kMod divide by zero), all five ArithOps, and comparisons,
/// which take the default (per-row) batch path. A comparison's right side
/// is the double column, so it compares in double: an all-integer one
/// would evaluate its operands with EvalInt64, whose integer division
/// traps on a zero divisor.
ExprRef RandomNumericExpr(Rng* rng, int depth) {
  if (depth == 0) {
    switch (rng->UniformInt(0, 5)) {
      case 0:
        return Col(0, ValueType::kInt64);
      case 1:
        return Col(1, ValueType::kDouble);
      case 2:
        return Col(2, ValueType::kDate);
      case 3:
        return Lit(rng->UniformInt(-3, 3));
      case 4:
        return Lit(rng->Bernoulli(0.2) ? 0.0 : rng->UniformDouble(-5, 5));
      default:
        return Lit(Date{static_cast<int32_t>(rng->UniformInt(8000, 9000))});
    }
  }
  ExprRef lhs = RandomNumericExpr(rng, depth - 1);
  ExprRef rhs = RandomNumericExpr(
      rng, static_cast<int>(rng->UniformInt(0, depth - 1)));
  if (rng->Bernoulli(0.15)) {
    return Cmp(static_cast<CmpOp>(rng->UniformInt(0, 5)), std::move(lhs),
               Col(1, ValueType::kDouble));
  }
  return Arith(static_cast<ArithOp>(rng->UniformInt(0, 4)), std::move(lhs),
               std::move(rhs));
}

TEST(ExprBatchTest, RandomTreesMatchPerRowEvaluationBitForBit) {
  const Schema schema({Column::Int64("i"), Column::Double("d"),
                       Column::DateCol("t"), Column::String("s", 5)});
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Row counts straddle the arithmetic nodes' 256-row chunking.
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 700));
    std::vector<uint8_t> rows(n * schema.row_width());
    for (std::size_t r = 0; r < n; ++r) {
      RowWriter w(rows.data() + r * schema.row_width(), &schema);
      w.SetInt64(0, rng.Bernoulli(0.2) ? 0 : rng.UniformInt(-1000, 1000))
          .SetDouble(1, rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble(-1e3, 1e3))
          .SetDate(2, Date{static_cast<int32_t>(rng.UniformInt(8000, 11000))})
          .SetString(3, "x");
    }
    for (int e = 0; e < 8; ++e) {
      ExprRef expr =
          RandomNumericExpr(&rng, static_cast<int>(rng.UniformInt(3, 6)));
      SCOPED_TRACE(expr->Canonical());
      std::vector<double> want(n), got(n, -1.0);
      for (std::size_t r = 0; r < n; ++r) {
        want[r] = expr->EvalDouble(
            TupleRef(rows.data() + r * schema.row_width(), &schema));
      }
      expr->EvalDoubleBatch(rows.data(), n, schema, got.data());
      EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0);
    }
  }
}

TEST_F(ExprTest, BatchEvaluationCoversEveryLeafAndOp) {
  // One row, each node kind directly; division and modulo by zero too.
  std::vector<ExprRef> exprs = {IntCol(), DblCol(), DateCol(), Lit(7.5),
                                Lit(int64_t{-3}), Lit(MakeDate(1995, 1, 1))};
  for (int op = 0; op <= static_cast<int>(ArithOp::kMod); ++op) {
    exprs.push_back(Arith(static_cast<ArithOp>(op), DblCol(), IntCol()));
    exprs.push_back(Arith(static_cast<ArithOp>(op), IntCol(), Lit(0.0)));
  }
  exprs.push_back(Cmp(CmpOp::kLt, IntCol(), DblCol()));
  for (const ExprRef& e : exprs) {
    double got = -1;
    e->EvalDoubleBatch(row_.data(), 1, schema_, &got);
    const double want = e->EvalDouble(Row());
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0) << e->Canonical();
  }
}

// ---------------------------------------------------------------------------
// Canonical forms: identical expressions render identically; different
// ones differ (the SP-matching contract).
// ---------------------------------------------------------------------------

TEST_F(ExprTest, CanonicalStableAcrossInstances) {
  auto make = [&] {
    return And(Cmp(CmpOp::kGe, IntCol(), Lit(int64_t{3})),
               Cmp(CmpOp::kLt, DblCol(), Lit(9.5)));
  };
  EXPECT_EQ(make()->Canonical(), make()->Canonical());
}

TEST_F(ExprTest, CanonicalDistinguishesOps) {
  EXPECT_NE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{3}))->Canonical(),
            Cmp(CmpOp::kLe, IntCol(), Lit(int64_t{3}))->Canonical());
}

TEST_F(ExprTest, CanonicalDistinguishesLiterals) {
  EXPECT_NE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{3}))->Canonical(),
            Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{4}))->Canonical());
}

TEST_F(ExprTest, CanonicalKeepsEveryBitOfDoubleLiterals) {
  // Literals that 6 significant digits render alike stay apart; ones that
  // 6 digits render exactly keep their short form.
  EXPECT_NE(Lit(1.0)->Canonical(), Lit(1.0000001)->Canonical());
  EXPECT_NE(Lit(0.1)->Canonical(), Lit(0.1 + 1e-12)->Canonical());
  EXPECT_EQ(Lit(1.0)->Canonical(), "1");
  EXPECT_EQ(Lit(0.05)->Canonical(), "0.05");
  EXPECT_EQ(Lit(-2.5)->Canonical(), "-2.5");
}

TEST_F(ExprTest, CanonicalDistinguishesColumns) {
  EXPECT_NE(Cmp(CmpOp::kLt, IntCol(), Lit(int64_t{3}))->Canonical(),
            Cmp(CmpOp::kLt, Col(5, ValueType::kInt64), Lit(int64_t{3}))
                ->Canonical());
}

TEST_F(ExprTest, CanonicalRendersStructure) {
  ExprRef e = And(Cmp(CmpOp::kEq, IntCol(), Lit(int64_t{1})),
                  Not(Cmp(CmpOp::kGt, DblCol(), Lit(2.0))));
  EXPECT_EQ(e->Canonical(), "and((c0==1),not((c1>2)))");
}

TEST_F(ExprTest, ColNamedResolvesByName) {
  ExprRef e = ColNamed(schema_, "d");
  EXPECT_DOUBLE_EQ(e->EvalDouble(Row()), 2.5);
}

}  // namespace
}  // namespace sharing
