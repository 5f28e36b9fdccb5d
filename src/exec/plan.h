// Logical query plans.
//
// Plans are built programmatically by the workload templates (there is no
// SQL front-end; the paper's prototypes also compile templates straight to
// plans). Every node renders a canonical string; its 64-bit hash is the
// plan *signature* used by Simultaneous Pipelining to detect common
// sub-plans among in-flight queries (identical signature == identical
// operator subtree including all predicates).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "storage/schema.h"

namespace sharing {

enum class PlanKind { kScan, kJoin, kAggregate, kSort };

std::string_view PlanKindToString(PlanKind kind);

class PlanNode;
using PlanNodeRef = std::shared_ptr<const PlanNode>;

/// One aggregate in an AggregateNode.
struct AggSpec {
  enum class Func { kSum, kCount, kAvg, kMin, kMax };

  Func func = Func::kCount;
  ExprRef input;  // null for COUNT(*)
  std::string name;

  static AggSpec Sum(ExprRef e, std::string name) {
    return {Func::kSum, std::move(e), std::move(name)};
  }
  static AggSpec Count(std::string name) {
    return {Func::kCount, nullptr, std::move(name)};
  }
  static AggSpec Avg(ExprRef e, std::string name) {
    return {Func::kAvg, std::move(e), std::move(name)};
  }
  static AggSpec Min(ExprRef e, std::string name) {
    return {Func::kMin, std::move(e), std::move(name)};
  }
  static AggSpec Max(ExprRef e, std::string name) {
    return {Func::kMax, std::move(e), std::move(name)};
  }

  std::string Canonical() const;
};

/// One sort key: column index in the input schema + direction.
struct SortKey {
  std::size_t column = 0;
  bool ascending = true;
};

class PlanNode {
 public:
  virtual ~PlanNode() = default;

  PlanKind kind() const { return kind_; }
  const Schema& output_schema() const { return output_schema_; }
  const std::vector<PlanNodeRef>& children() const { return children_; }

  /// Stable canonical rendering of the whole subtree.
  virtual std::string Canonical() const = 0;

  /// FNV-1a hash of Canonical(); cached.
  uint64_t Signature() const;

 protected:
  PlanNode(PlanKind kind, Schema output_schema,
           std::vector<PlanNodeRef> children)
      : kind_(kind),
        output_schema_(std::move(output_schema)),
        children_(std::move(children)) {}

 private:
  PlanKind kind_;
  Schema output_schema_;
  std::vector<PlanNodeRef> children_;
  /// Lazily computed; concurrent submitters of one plan may race to fill
  /// it, all with the same value.
  mutable std::atomic<uint64_t> cached_signature_{0};
};

class ScanNode final : public PlanNode {
 public:
  /// Scans `table_name` (whose rows have `table_schema`), keeps rows where
  /// `predicate` holds, and outputs the columns in `projection` (indices
  /// into the table schema, in output order).
  ScanNode(std::string table_name, const Schema& table_schema,
           ExprRef predicate, std::vector<std::size_t> projection);

  const std::string& table_name() const { return table_name_; }
  const Schema& table_schema() const { return table_schema_; }
  const ExprRef& predicate() const { return predicate_; }
  const std::vector<std::size_t>& projection() const { return projection_; }

  std::string Canonical() const override;

 private:
  std::string table_name_;
  Schema table_schema_;
  ExprRef predicate_;
  std::vector<std::size_t> projection_;
};

/// Hash equi-join on single int64 key columns (covers every TPC-H/SSB
/// foreign key). Left child is the build side; output is left ⊕ right.
class JoinNode final : public PlanNode {
 public:
  JoinNode(PlanNodeRef build, PlanNodeRef probe, std::size_t build_key,
           std::size_t probe_key);

  const PlanNodeRef& build() const { return children()[0]; }
  const PlanNodeRef& probe() const { return children()[1]; }
  std::size_t build_key() const { return build_key_; }
  std::size_t probe_key() const { return probe_key_; }

  std::string Canonical() const override;

 private:
  std::size_t build_key_;
  std::size_t probe_key_;
};

class AggregateNode final : public PlanNode {
 public:
  /// Groups child rows by `group_by` (column indices into the child's
  /// output schema) and computes `aggs`. Output schema: group columns in
  /// order, then one column per aggregate (double for Sum/Avg/Min/Max over
  /// numerics, int64 for Count).
  AggregateNode(PlanNodeRef child, std::vector<std::size_t> group_by,
                std::vector<AggSpec> aggs);

  const PlanNodeRef& child() const { return children()[0]; }
  const std::vector<std::size_t>& group_by() const { return group_by_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }

  std::string Canonical() const override;

 private:
  std::vector<std::size_t> group_by_;
  std::vector<AggSpec> aggs_;
};

class SortNode final : public PlanNode {
 public:
  /// `limit` = 0 means full sort; otherwise only the first `limit` rows in
  /// key order are emitted (ORDER BY ... LIMIT k, evaluated as top-k).
  SortNode(PlanNodeRef child, std::vector<SortKey> keys,
           std::size_t limit = 0);

  const PlanNodeRef& child() const { return children()[0]; }
  const std::vector<SortKey>& keys() const { return keys_; }
  std::size_t limit() const { return limit_; }

  std::string Canonical() const override;

 private:
  std::vector<SortKey> keys_;
  std::size_t limit_;
};

/// FNV-1a 64-bit over `s` (exposed for tests).
uint64_t HashCanonical(const std::string& s);

}  // namespace sharing
