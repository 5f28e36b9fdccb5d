#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace sharing {

std::string_view CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

bool Expr::EvalBool(TupleRef row) const { return EvalInt64(row) != 0; }

std::string_view Expr::EvalString(TupleRef) const {
  SHARING_CHECK(false) << "EvalString on non-string expression";
  return {};
}

void Expr::EvalDoubleBatch(const uint8_t* rows, std::size_t n,
                           const Schema& schema, double* out) const {
  const std::size_t stride = schema.row_width();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = EvalDouble(TupleRef(rows + i * stride, &schema));
  }
}

namespace {

/// Reads the fixed-width field at `field` of each of `n` rows `stride`
/// bytes apart, converting it to double as EvalDouble does.
template <typename T>
void LoadColumn(const uint8_t* field, std::size_t n, std::size_t stride,
                double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    T v;
    std::memcpy(&v, field + i * stride, sizeof(v));
    out[i] = static_cast<double>(v);
  }
}

class ColumnExpr final : public Expr {
 public:
  ColumnExpr(std::size_t index, ValueType type)
      : Expr(Kind::kColumn, type), index_(index) {}

  double EvalDouble(TupleRef row) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return static_cast<double>(row.GetInt64(index_));
      case ValueType::kDouble:
        return row.GetDouble(index_);
      case ValueType::kDate:
        return static_cast<double>(row.GetDate(index_).days_since_epoch);
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalDouble on string column";
    return 0;
  }

  void EvalDoubleBatch(const uint8_t* rows, std::size_t n,
                       const Schema& schema, double* out) const override {
    const uint8_t* field = rows + schema.offset(index_);
    const std::size_t stride = schema.row_width();
    switch (output_type()) {
      case ValueType::kInt64:
        return LoadColumn<int64_t>(field, n, stride, out);
      case ValueType::kDouble:
        return LoadColumn<double>(field, n, stride, out);
      case ValueType::kDate:  // Date is its int32 days_since_epoch
        return LoadColumn<int32_t>(field, n, stride, out);
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalDouble on string column";
  }

  int64_t EvalInt64(TupleRef row) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return row.GetInt64(index_);
      case ValueType::kDouble:
        return static_cast<int64_t>(row.GetDouble(index_));
      case ValueType::kDate:
        return row.GetDate(index_).days_since_epoch;
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalInt64 on string column";
    return 0;
  }

  std::string_view EvalString(TupleRef row) const override {
    SHARING_DCHECK(output_type() == ValueType::kString);
    return row.GetString(index_);
  }

  std::string Canonical() const override {
    std::string out = "c";
    out += std::to_string(index_);
    return out;
  }

  std::size_t index() const { return index_; }

 private:
  std::size_t index_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v)
      : Expr(Kind::kLiteral, TypeOfValue(v)), value_(std::move(v)) {}

  double EvalDouble(TupleRef) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return static_cast<double>(std::get<int64_t>(value_));
      case ValueType::kDouble:
        return std::get<double>(value_);
      case ValueType::kDate:
        return static_cast<double>(std::get<Date>(value_).days_since_epoch);
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalDouble on string literal";
    return 0;
  }

  void EvalDoubleBatch(const uint8_t* rows, std::size_t n,
                       const Schema& schema, double* out) const override {
    std::fill(out, out + n, EvalDouble(TupleRef(rows, &schema)));
  }

  int64_t EvalInt64(TupleRef) const override {
    switch (output_type()) {
      case ValueType::kInt64:
        return std::get<int64_t>(value_);
      case ValueType::kDouble:
        return static_cast<int64_t>(std::get<double>(value_));
      case ValueType::kDate:
        return std::get<Date>(value_).days_since_epoch;
      case ValueType::kString:
        break;
    }
    SHARING_CHECK(false) << "EvalInt64 on string literal";
    return 0;
  }

  std::string_view EvalString(TupleRef) const override {
    SHARING_DCHECK(output_type() == ValueType::kString);
    return std::get<std::string>(value_);
  }

  /// ValueToString keeps 6 significant digits; a double literal it does
  /// not round-trip is printed with all 17, so two different literals never
  /// share a canonical form (and with it a plan signature or an aggregate
  /// input).
  std::string Canonical() const override {
    std::string text = ValueToString(value_);
    if (output_type() == ValueType::kDouble) {
      const double v = std::get<double>(value_);
      if (std::strtod(text.c_str(), nullptr) != v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        text = buf;
      }
    }
    return text;
  }

 private:
  Value value_;
};

/// Comparison specialised on the operand category decided at construction.
class CompareExpr final : public Expr {
 public:
  enum class Mode { kNumeric, kString };

  CompareExpr(CmpOp op, ExprRef lhs, ExprRef rhs, Mode mode)
      : Expr(Kind::kCompare, ValueType::kInt64),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)),
        mode_(mode) {}

  bool EvalBool(TupleRef row) const override {
    if (mode_ == Mode::kString) {
      return Apply(lhs_->EvalString(row).compare(rhs_->EvalString(row)));
    }
    // Integer-exact when both sides are integral; double otherwise.
    if (lhs_->output_type() != ValueType::kDouble &&
        rhs_->output_type() != ValueType::kDouble) {
      int64_t l = lhs_->EvalInt64(row), r = rhs_->EvalInt64(row);
      return Apply(l < r ? -1 : (l > r ? 1 : 0));
    }
    double l = lhs_->EvalDouble(row), r = rhs_->EvalDouble(row);
    return Apply(l < r ? -1 : (l > r ? 1 : 0));
  }

  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  std::string Canonical() const override {
    std::string out = "(";
    out += lhs_->Canonical();
    out += CmpOpToString(op_);
    out += rhs_->Canonical();
    out += ")";
    return out;
  }

 private:
  bool Apply(int cmp) const {
    switch (op_) {
      case CmpOp::kEq:
        return cmp == 0;
      case CmpOp::kNe:
        return cmp != 0;
      case CmpOp::kLt:
        return cmp < 0;
      case CmpOp::kLe:
        return cmp <= 0;
      case CmpOp::kGt:
        return cmp > 0;
      case CmpOp::kGe:
        return cmp >= 0;
    }
    return false;
  }

  CmpOp op_;
  ExprRef lhs_, rhs_;
  Mode mode_;
};

class AndExpr final : public Expr {
 public:
  explicit AndExpr(std::vector<ExprRef> children)
      : Expr(Kind::kAnd, ValueType::kInt64), children_(std::move(children)) {}

  bool EvalBool(TupleRef row) const override {
    for (const auto& c : children_) {
      if (!c->EvalBool(row)) return false;
    }
    return true;
  }
  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  std::string Canonical() const override {
    std::string out = "and(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) out += ",";
      out += children_[i]->Canonical();
    }
    return out + ")";
  }

 private:
  std::vector<ExprRef> children_;
};

class OrExpr final : public Expr {
 public:
  explicit OrExpr(std::vector<ExprRef> children)
      : Expr(Kind::kOr, ValueType::kInt64), children_(std::move(children)) {}

  bool EvalBool(TupleRef row) const override {
    for (const auto& c : children_) {
      if (c->EvalBool(row)) return true;
    }
    return false;
  }
  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  std::string Canonical() const override {
    std::string out = "or(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) out += ",";
      out += children_[i]->Canonical();
    }
    return out + ")";
  }

 private:
  std::vector<ExprRef> children_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprRef child)
      : Expr(Kind::kNot, ValueType::kInt64), child_(std::move(child)) {}

  bool EvalBool(TupleRef row) const override { return !child_->EvalBool(row); }
  double EvalDouble(TupleRef row) const override {
    return EvalBool(row) ? 1.0 : 0.0;
  }
  int64_t EvalInt64(TupleRef row) const override {
    return EvalBool(row) ? 1 : 0;
  }

  std::string Canonical() const override {
    return "not(" + child_->Canonical() + ")";
  }

 private:
  ExprRef child_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprRef lhs, ExprRef rhs, ValueType out)
      : Expr(Kind::kArith, out),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  double EvalDouble(TupleRef row) const override {
    double l = lhs_->EvalDouble(row), r = rhs_->EvalDouble(row);
    switch (op_) {
      case ArithOp::kAdd:
        return l + r;
      case ArithOp::kSub:
        return l - r;
      case ArithOp::kMul:
        return l * r;
      case ArithOp::kDiv:
        return l / r;
      case ArithOp::kMod:
        return std::fmod(l, r);
    }
    return 0;
  }

  /// The left operand is evaluated straight into `out`, the right one into
  /// a stack buffer a chunk at a time (a literal operand fills it).
  void EvalDoubleBatch(const uint8_t* rows, std::size_t n,
                       const Schema& schema, double* out) const override {
    constexpr std::size_t kChunk = 256;
    lhs_->EvalDoubleBatch(rows, n, schema, out);
    double rhs[kChunk];
    for (std::size_t start = 0; start < n; start += kChunk) {
      const std::size_t m = std::min(kChunk, n - start);
      rhs_->EvalDoubleBatch(rows + start * schema.row_width(), m, schema,
                            rhs);
      Apply(rhs, m, out + start);
    }
  }

  int64_t EvalInt64(TupleRef row) const override {
    if (output_type() == ValueType::kDouble) {
      return static_cast<int64_t>(EvalDouble(row));
    }
    int64_t l = lhs_->EvalInt64(row), r = rhs_->EvalInt64(row);
    switch (op_) {
      case ArithOp::kAdd:
        return l + r;
      case ArithOp::kSub:
        return l - r;
      case ArithOp::kMul:
        return l * r;
      case ArithOp::kDiv:
        SHARING_DCHECK(r != 0);
        return l / r;
      case ArithOp::kMod:
        SHARING_DCHECK(r != 0);
        return l % r;
    }
    return 0;
  }

  std::string Canonical() const override {
    std::string out = "(";
    out += lhs_->Canonical();
    out += ArithOpToString(op_);
    out += rhs_->Canonical();
    out += ")";
    return out;
  }

 private:
  /// out[i] = out[i] op r[i] for i < n, as EvalDouble computes it.
  void Apply(const double* r, std::size_t n, double* out) const {
    switch (op_) {
      case ArithOp::kAdd:
        for (std::size_t i = 0; i < n; ++i) out[i] = out[i] + r[i];
        break;
      case ArithOp::kSub:
        for (std::size_t i = 0; i < n; ++i) out[i] = out[i] - r[i];
        break;
      case ArithOp::kMul:
        for (std::size_t i = 0; i < n; ++i) out[i] = out[i] * r[i];
        break;
      case ArithOp::kDiv:
        for (std::size_t i = 0; i < n; ++i) out[i] = out[i] / r[i];
        break;
      case ArithOp::kMod:
        for (std::size_t i = 0; i < n; ++i) out[i] = std::fmod(out[i], r[i]);
        break;
    }
  }

  ArithOp op_;
  ExprRef lhs_, rhs_;
};

}  // namespace

ExprRef Col(std::size_t index, ValueType type) {
  return std::make_shared<ColumnExpr>(index, type);
}

ExprRef ColNamed(const Schema& schema, const std::string& name) {
  auto idx_or = schema.ColumnIndex(name);
  SHARING_CHECK(idx_or.ok()) << idx_or.status().ToString();
  std::size_t idx = idx_or.value();
  return Col(idx, schema.column(idx).type);
}

ExprRef Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

ExprRef Cmp(CmpOp op, ExprRef lhs, ExprRef rhs) {
  bool ls = lhs->output_type() == ValueType::kString;
  bool rs = rhs->output_type() == ValueType::kString;
  SHARING_CHECK(ls == rs) << "comparison between string and non-string";
  auto mode = ls ? CompareExpr::Mode::kString : CompareExpr::Mode::kNumeric;
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs),
                                       mode);
}

ExprRef Between(ExprRef e, Value lo, Value hi) {
  // Bind the copy explicitly: evaluation order of function arguments is
  // unspecified, so `e` must not be moved in the same call that copies it.
  ExprRef lower = Cmp(CmpOp::kGe, e, Lit(std::move(lo)));
  ExprRef upper = Cmp(CmpOp::kLe, std::move(e), Lit(std::move(hi)));
  return And(std::move(lower), std::move(upper));
}

ExprRef And(std::vector<ExprRef> children) {
  SHARING_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  return std::make_shared<AndExpr>(std::move(children));
}

ExprRef And(ExprRef a, ExprRef b) {
  return And(std::vector<ExprRef>{std::move(a), std::move(b)});
}

ExprRef Or(std::vector<ExprRef> children) {
  SHARING_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  return std::make_shared<OrExpr>(std::move(children));
}

ExprRef Or(ExprRef a, ExprRef b) {
  return Or(std::vector<ExprRef>{std::move(a), std::move(b)});
}

ExprRef Not(ExprRef e) { return std::make_shared<NotExpr>(std::move(e)); }

ExprRef Arith(ArithOp op, ExprRef lhs, ExprRef rhs) {
  SHARING_CHECK(lhs->output_type() != ValueType::kString &&
                rhs->output_type() != ValueType::kString)
      << "arithmetic on strings";
  ValueType out = (lhs->output_type() == ValueType::kDouble ||
                   rhs->output_type() == ValueType::kDouble)
                      ? ValueType::kDouble
                      : ValueType::kInt64;
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs), out);
}

ExprRef TruePredicate() {
  return Cmp(CmpOp::kEq, Lit(int64_t{1}), Lit(int64_t{1}));
}

}  // namespace sharing
