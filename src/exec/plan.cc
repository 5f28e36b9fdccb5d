#include "exec/plan.h"

#include "common/logging.h"

namespace sharing {

std::string_view PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "scan";
    case PlanKind::kJoin:
      return "join";
    case PlanKind::kAggregate:
      return "agg";
    case PlanKind::kSort:
      return "sort";
  }
  return "?";
}

std::string AggSpec::Canonical() const {
  std::string out;
  switch (func) {
    case Func::kSum:
      out = "sum";
      break;
    case Func::kCount:
      out = "count";
      break;
    case Func::kAvg:
      out = "avg";
      break;
    case Func::kMin:
      out = "min";
      break;
    case Func::kMax:
      out = "max";
      break;
  }
  out += "(";
  out += input ? input->Canonical() : "*";
  out += ")";
  return out;
}

uint64_t HashCanonical(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t PlanNode::Signature() const {
  uint64_t sig = cached_signature_.load();
  if (sig == 0) {
    sig = HashCanonical(Canonical());
    if (sig == 0) sig = 1;
    cached_signature_.store(sig);
  }
  return sig;
}

// ---------------------------------------------------------------------------
// ScanNode
// ---------------------------------------------------------------------------

namespace {
Schema ProjectSchema(const Schema& schema,
                     const std::vector<std::size_t>& projection) {
  return schema.Project(projection);
}
}  // namespace

ScanNode::ScanNode(std::string table_name, const Schema& table_schema,
                   ExprRef predicate, std::vector<std::size_t> projection)
    : PlanNode(PlanKind::kScan, ProjectSchema(table_schema, projection), {}),
      table_name_(std::move(table_name)),
      table_schema_(table_schema),
      predicate_(std::move(predicate)),
      projection_(std::move(projection)) {
  SHARING_CHECK(predicate_ != nullptr);
  SHARING_CHECK(!projection_.empty());
}

std::string ScanNode::Canonical() const {
  std::string out = "scan(" + table_name_ + ",";
  out += predicate_->Canonical();
  out += ",proj[";
  for (std::size_t i = 0; i < projection_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(projection_[i]);
  }
  out += "])";
  return out;
}

// ---------------------------------------------------------------------------
// JoinNode
// ---------------------------------------------------------------------------

JoinNode::JoinNode(PlanNodeRef build, PlanNodeRef probe, std::size_t build_key,
                   std::size_t probe_key)
    : PlanNode(PlanKind::kJoin,
               build->output_schema().Concat(probe->output_schema()),
               {build, probe}),
      build_key_(build_key),
      probe_key_(probe_key) {
  SHARING_CHECK(build_key_ < build->output_schema().num_columns());
  SHARING_CHECK(probe_key_ < probe->output_schema().num_columns());
  SHARING_CHECK(build->output_schema().column(build_key_).type ==
                ValueType::kInt64)
      << "join keys must be int64";
  SHARING_CHECK(probe->output_schema().column(probe_key_).type ==
                ValueType::kInt64)
      << "join keys must be int64";
}

std::string JoinNode::Canonical() const {
  return "join(" + build()->Canonical() + "," + probe()->Canonical() +
         ",bk=" + std::to_string(build_key_) +
         ",pk=" + std::to_string(probe_key_) + ")";
}

// ---------------------------------------------------------------------------
// AggregateNode
// ---------------------------------------------------------------------------

namespace {
Schema AggOutputSchema(const Schema& input,
                       const std::vector<std::size_t>& group_by,
                       const std::vector<AggSpec>& aggs) {
  std::vector<Column> cols;
  cols.reserve(group_by.size() + aggs.size());
  for (auto g : group_by) {
    SHARING_CHECK(g < input.num_columns());
    cols.push_back(input.column(g));
  }
  for (const auto& a : aggs) {
    if (a.func == AggSpec::Func::kCount) {
      cols.push_back(Column::Int64(a.name));
    } else {
      cols.push_back(Column::Double(a.name));
    }
  }
  return Schema(std::move(cols));
}
}  // namespace

AggregateNode::AggregateNode(PlanNodeRef child,
                             std::vector<std::size_t> group_by,
                             std::vector<AggSpec> aggs)
    : PlanNode(PlanKind::kAggregate,
               AggOutputSchema(child->output_schema(), group_by, aggs),
               {child}),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  SHARING_CHECK(!aggs_.empty());
  for (const auto& a : aggs_) {
    if (a.func != AggSpec::Func::kCount) {
      SHARING_CHECK(a.input != nullptr)
          << "aggregate " << a.name << " needs an input expression";
    }
  }
}

std::string AggregateNode::Canonical() const {
  std::string out = "agg(" + child()->Canonical() + ",gb[";
  for (std::size_t i = 0; i < group_by_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(group_by_[i]);
  }
  out += "],[";
  for (std::size_t i = 0; i < aggs_.size(); ++i) {
    if (i) out += ",";
    out += aggs_[i].Canonical();
  }
  out += "])";
  return out;
}

// ---------------------------------------------------------------------------
// SortNode
// ---------------------------------------------------------------------------

SortNode::SortNode(PlanNodeRef child, std::vector<SortKey> keys,
                   std::size_t limit)
    : PlanNode(PlanKind::kSort, child->output_schema(), {child}),
      keys_(std::move(keys)),
      limit_(limit) {
  SHARING_CHECK(!keys_.empty());
  for (const auto& k : keys_) {
    SHARING_CHECK(k.column < output_schema().num_columns());
  }
}

std::string SortNode::Canonical() const {
  std::string out = "sort(" + child()->Canonical() + ",[";
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(keys_[i].column);
    out += keys_[i].ascending ? "a" : "d";
  }
  out += "]";
  if (limit_ > 0) {
    out += ",limit=";
    out += std::to_string(limit_);
  }
  out += ")";
  return out;
}

}  // namespace sharing
