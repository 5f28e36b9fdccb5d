#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "storage/tuple.h"

namespace sharing {

namespace {

/// Accumulates output rows into pages and forwards full pages to the sink.
/// Returns false from Append* when the sink has no consumers left.
class PageEmitter {
 public:
  PageEmitter(std::size_t row_width, PageSink* sink)
      : row_width_(row_width), sink_(sink) {
    current_ = std::make_shared<RowPage>(row_width_);
  }

  uint8_t* AppendSlot() {
    uint8_t* slot = current_->AppendSlot();
    if (slot != nullptr) return slot;
    if (!Flush()) return nullptr;
    return current_->AppendSlot();
  }

  bool AppendRow(const uint8_t* row) {
    uint8_t* slot = AppendSlot();
    if (slot == nullptr) return false;
    std::memcpy(slot, row, row_width_);
    return true;
  }

  /// Emits the current partial page. Returns false when consumers are gone.
  bool Flush() {
    if (current_->empty()) return true;
    PageRef out = std::move(current_);
    current_ = std::make_shared<RowPage>(row_width_);
    return sink_->Put(std::move(out));
  }

 private:
  std::size_t row_width_;
  PageSink* sink_;
  std::shared_ptr<RowPage> current_;
};

/// Terminates early: tells upstream producers this consumer is gone, then
/// seals the output with an Aborted status.
Status Abort(const char* why, PageSink* sink,
             std::initializer_list<PageSource*> inputs = {}) {
  for (PageSource* in : inputs) {
    if (in != nullptr) in->CancelConsumer();
  }
  Status st = Status::Aborted(why);
  sink->Close(st);
  return st;
}

/// Terminal close for a stop request (cancellation or deadline expiry):
/// tells upstream producers this consumer is gone, then seals the output
/// with the context's verdict so DeadlineExceeded propagates intact
/// instead of degrading into a generic abort.
Status FinishStopped(ExecContext* ctx, PageSink* sink,
                     std::initializer_list<PageSource*> inputs = {}) {
  for (PageSource* in : inputs) {
    if (in != nullptr) in->CancelConsumer();
  }
  Status st = ctx->TerminalStatus();
  if (st.ok()) st = Status::Aborted("query cancelled");
  sink->Close(st);
  return st;
}

Status FinishNoConsumers(PageSink* sink,
                         std::initializer_list<PageSource*> inputs = {}) {
  return Abort("all consumers detached", sink, inputs);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

namespace {

/// Filters+projects the rows of one stored page into the emitter.
/// Returns false when the sink lost all consumers.
bool ScanOnePage(const ScanNode& node, const Schema& table_schema,
                 const uint8_t* frame, PageEmitter* emitter) {
  const uint32_t n_rows = page_layout::RowCount(frame);
  const Expr* pred = node.predicate().get();
  const auto& projection = node.projection();
  const Schema& out_schema = node.output_schema();
  for (uint32_t i = 0; i < n_rows; ++i) {
    TupleRef row(page_layout::RowAt(frame, i), &table_schema);
    if (!pred->EvalBool(row)) continue;
    uint8_t* slot = emitter->AppendSlot();
    if (slot == nullptr) return false;
    for (std::size_t c = 0; c < projection.size(); ++c) {
      std::memcpy(slot + out_schema.offset(c),
                  row.data() + table_schema.offset(projection[c]),
                  out_schema.column(c).width);
    }
  }
  return true;
}

}  // namespace

Status RunScan(const ScanNode& node, const Table* table,
               CircularScanGroup* scan_group, ExecContext* ctx,
               PageSink* sink) {
  SHARING_CHECK(table->schema() == node.table_schema())
      << "plan schema does not match table " << table->name();
  PageEmitter emitter(node.output_schema().row_width(), sink);

  if (scan_group != nullptr) {
    auto ticket = scan_group->Attach();
    while (ScanPageRef page = ticket->Next()) {
      if (ctx->StopRequested()) {
        ticket->Cancel();
        return FinishStopped(ctx, sink);
      }
      if (!ScanOnePage(node, table->schema(), page->data(), &emitter)) {
        ticket->Cancel();
        return FinishNoConsumers(sink);
      }
    }
    Status scan_status = ticket->FinalStatus();
    if (!scan_status.ok()) {
      sink->Close(scan_status);
      return scan_status;
    }
  } else {
    BufferPool* pool = table->buffer_pool();
    for (std::size_t p = 0; p < table->num_pages(); ++p) {
      if (ctx->StopRequested()) return FinishStopped(ctx, sink);
      auto guard_or = pool->FetchPage(table->page_id(p));
      if (!guard_or.ok()) {
        sink->Close(guard_or.status());
        return guard_or.status();
      }
      if (!ScanOnePage(node, table->schema(), guard_or.value().data(),
                       &emitter)) {
        return FinishNoConsumers(sink);
      }
    }
  }

  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

Status RunHashJoin(const JoinNode& node, PageSource* build, PageSource* probe,
                   ExecContext* ctx, PageSink* sink) {
  const Schema& build_schema = node.build()->output_schema();
  const Schema& probe_schema = node.probe()->output_schema();
  const std::size_t build_width = build_schema.row_width();
  const std::size_t probe_width = probe_schema.row_width();
  const std::size_t build_key_off = build_schema.offset(node.build_key());
  const std::size_t probe_key_off = probe_schema.offset(node.probe_key());

  // Build phase: copy rows into an arena keyed by the join column.
  std::vector<uint8_t> arena;
  std::unordered_multimap<int64_t, uint32_t> table;
  while (PageRef page = build->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {build, probe});
    for (std::size_t i = 0; i < page->row_count(); ++i) {
      const uint8_t* row = page->RowAt(i);
      int64_t key;
      std::memcpy(&key, row + build_key_off, sizeof(key));
      table.emplace(key,
                    static_cast<uint32_t>(arena.size() / build_width));
      arena.insert(arena.end(), row, row + build_width);
    }
  }
  if (!build->FinalStatus().ok()) {
    Status st = build->FinalStatus();
    // The probe source was never drained: cancel it, or its producer
    // eventually blocks on a full buffer no one will ever empty (and, in
    // push-SP, starves every other consumer of that sharing session).
    probe->CancelConsumer();
    sink->Close(st);
    return st;
  }

  // Probe phase.
  PageEmitter emitter(node.output_schema().row_width(), sink);
  while (PageRef page = probe->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {probe});
    for (std::size_t i = 0; i < page->row_count(); ++i) {
      const uint8_t* row = page->RowAt(i);
      int64_t key;
      std::memcpy(&key, row + probe_key_off, sizeof(key));
      auto [lo, hi] = table.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        uint8_t* slot = emitter.AppendSlot();
        if (slot == nullptr) return FinishNoConsumers(sink, {probe});
        std::memcpy(slot, arena.data() + std::size_t(it->second) * build_width,
                    build_width);
        std::memcpy(slot + build_width, row, probe_width);
      }
    }
  }
  if (!probe->FinalStatus().ok()) {
    Status st = probe->FinalStatus();
    sink->Close(st);
    return st;
  }

  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

namespace {

/// Packed group key -> dense group id (0, 1, 2, ... in first-seen order),
/// by linear probing over a power-of-two slot array. Keys are stored as
/// zero-padded 64-bit words, back to back in one array, so a probe hashes
/// and compares whole words.
class GroupTable {
 public:
  explicit GroupTable(std::size_t key_width)
      : words_((key_width + 7) / 8), slots_(16, kEmpty) {}

  /// Words per key; FindOrInsert reads that many.
  std::size_t words() const { return words_; }
  std::size_t size() const { return hashes_.size(); }
  const uint64_t* key(std::size_t group) const {
    return keys_.data() + group * words_;
  }

  /// The id of `key`; `*inserted` tells a new group.
  uint32_t FindOrInsert(const uint64_t* key, bool* inserted) {
    const uint64_t hash = Hash(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      const uint32_t g = slots_[s];
      if (g == kEmpty) break;
      if (hashes_[g] == hash && Equal(this->key(g), key)) {
        *inserted = false;
        return g;
      }
    }
    const auto g = static_cast<uint32_t>(size());
    hashes_.push_back(hash);
    keys_.insert(keys_.end(), key, key + words_);
    if (2 * size() > slots_.size()) {
      Rehash(2 * slots_.size());
    } else {
      Place(g);
    }
    *inserted = true;
    return g;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  uint64_t Hash(const uint64_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (std::size_t w = 0; w < words_; ++w) {
      h = (h ^ key[w]) * 0xFF51AFD7ED558CCDull;
      h ^= h >> 32;
    }
    return h;
  }

  bool Equal(const uint64_t* a, const uint64_t* b) const {
    for (std::size_t w = 0; w < words_; ++w) {
      if (a[w] != b[w]) return false;
    }
    return true;
  }

  void Place(uint32_t group) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = hashes_[group] & mask;
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = group;
  }

  void Rehash(std::size_t slot_count) {
    slots_.assign(slot_count, kEmpty);
    for (std::size_t g = 0; g < size(); ++g) Place(static_cast<uint32_t>(g));
  }

  std::size_t words_;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> hashes_;  // per group
  std::vector<uint64_t> keys_;    // per group, words_ each
};

}  // namespace

Status RunHashAggregate(const AggregateNode& node, PageSource* input,
                        ExecContext* ctx, PageSink* sink) {
  const Schema& in_schema = node.child()->output_schema();
  const auto& aggs = node.aggs();

  // Group-key extraction layout: byte ranges of the group columns, with
  // adjacent columns merged into one range.
  std::vector<std::pair<std::size_t, std::size_t>> key_ranges;  // off, width
  std::size_t key_width = 0;
  for (auto g : node.group_by()) {
    const std::size_t off = in_schema.offset(g);
    const std::size_t width = in_schema.column(g).width;
    if (!key_ranges.empty() &&
        key_ranges.back().first + key_ranges.back().second == off) {
      key_ranges.back().second += width;
    } else {
      key_ranges.emplace_back(off, width);
    }
    key_width += width;
  }

  // Distinct aggregate inputs, by canonical form, each evaluated once per
  // page: SUM(x) and AVG(x) read one batch of x. COUNT has no input.
  std::vector<const Expr*> inputs;
  std::vector<std::string> canonicals;
  std::vector<std::size_t> input_of(aggs.size(), 0);  // per agg
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].func == AggSpec::Func::kCount) continue;
    std::string canonical = aggs[a].input->Canonical();
    const auto it = std::find(canonicals.begin(), canonicals.end(), canonical);
    input_of[a] = static_cast<std::size_t>(it - canonicals.begin());
    if (it == canonicals.end()) {
      canonicals.push_back(std::move(canonical));
      inputs.push_back(aggs[a].input.get());
    }
  }

  // Accumulators, flat: group g's aggregate a is acc[g * n_aggs + a]. MIN
  // and MAX start at the group's first value; COUNT and the AVG divisor
  // read the group's row count.
  const std::size_t n_aggs = aggs.size();
  GroupTable groups(key_width);
  std::vector<double> acc;
  std::vector<int64_t> rows_in_group;
  // Per-page scratch, reused across pages.
  std::vector<uint64_t> key_buf(groups.words(), 0);
  std::vector<uint32_t> group_of;                     // per row
  std::vector<std::pair<uint32_t, uint32_t>> fresh;  // (group, first row)
  std::vector<double> values;                         // input j at j * n

  while (PageRef page = input->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {input});
    const std::size_t n = page->row_count();
    if (n == 0) continue;
    group_of.resize(n);
    fresh.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const uint8_t* row = page->RowAt(i);
      // Shift the key bytes into words in a register: byte p of the key
      // is byte p % 8 of word p / 8.
      uint64_t word = 0;
      std::size_t pos = 0;
      for (const auto& [off, width] : key_ranges) {
        for (std::size_t b = 0; b < width; ++b, ++pos) {
          word |= uint64_t{row[off + b]} << (8 * (pos % 8));
          if (pos % 8 == 7) {
            key_buf[pos / 8] = word;
            word = 0;
          }
        }
      }
      if (pos % 8 != 0) key_buf[pos / 8] = word;
      bool inserted;
      group_of[i] = groups.FindOrInsert(key_buf.data(), &inserted);
      if (inserted) fresh.emplace_back(group_of[i], static_cast<uint32_t>(i));
    }
    values.resize(inputs.size() * n);
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      inputs[j]->EvalDoubleBatch(page->RowAt(0), n, in_schema,
                                 values.data() + j * n);
    }
    acc.resize(groups.size() * n_aggs, 0.0);
    rows_in_group.resize(groups.size(), 0);
    for (uint32_t g : group_of) ++rows_in_group[g];
    // One aggregate at a time over the rows in page order, so every
    // group's sums add up in row order.
    for (std::size_t a = 0; a < n_aggs; ++a) {
      const double* v = values.data() + input_of[a] * n;
      double* col = acc.data() + a;  // group g's slot is col[g * n_aggs]
      switch (aggs[a].func) {
        case AggSpec::Func::kCount:
          break;
        case AggSpec::Func::kSum:
        case AggSpec::Func::kAvg:
          for (std::size_t i = 0; i < n; ++i) {
            col[group_of[i] * n_aggs] += v[i];
          }
          break;
        case AggSpec::Func::kMin:
          for (const auto& [g, first] : fresh) col[g * n_aggs] = v[first];
          for (std::size_t i = 0; i < n; ++i) {
            double& m = col[group_of[i] * n_aggs];
            if (v[i] < m) m = v[i];
          }
          break;
        case AggSpec::Func::kMax:
          for (const auto& [g, first] : fresh) col[g * n_aggs] = v[first];
          for (std::size_t i = 0; i < n; ++i) {
            double& m = col[group_of[i] * n_aggs];
            if (v[i] > m) m = v[i];
          }
          break;
      }
    }
  }
  if (!input->FinalStatus().ok()) {
    Status st = input->FinalStatus();
    sink->Close(st);
    return st;
  }

  // Emit one row per group: packed group key bytes, then aggregate values.
  const Schema& out_schema = node.output_schema();
  PageEmitter emitter(out_schema.row_width(), sink);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink);
    uint8_t* slot = emitter.AppendSlot();
    if (slot == nullptr) return FinishNoConsumers(sink);
    const uint64_t* key = groups.key(g);
    for (std::size_t p = 0; p < key_width; ++p) {
      slot[p] = static_cast<uint8_t>(key[p / 8] >> (8 * (p % 8)));
    }
    std::size_t off = key_width;
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].func == AggSpec::Func::kCount) {
        std::memcpy(slot + off, &rows_in_group[g], sizeof(int64_t));
      } else {
        double v = acc[g * n_aggs + a];
        if (aggs[a].func == AggSpec::Func::kAvg) v /= double(rows_in_group[g]);
        std::memcpy(slot + off, &v, sizeof(v));
      }
      off += sizeof(double);  // every aggregate column is 8 bytes wide
    }
  }
  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

Status RunSort(const SortNode& node, PageSource* input, ExecContext* ctx,
               PageSink* sink) {
  const Schema& schema = node.output_schema();
  const std::size_t width = schema.row_width();

  std::vector<uint8_t> rows;
  while (PageRef page = input->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {input});
    if (page->row_count() == 0) continue;
    rows.insert(rows.end(), page->RowAt(0),
                page->RowAt(0) + page->row_count() * width);
  }
  if (!input->FinalStatus().ok()) {
    Status st = input->FinalStatus();
    sink->Close(st);
    return st;
  }

  std::size_t n = width == 0 ? 0 : rows.size() / width;
  std::vector<uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

  auto compare_rows = [&](uint32_t a, uint32_t b) {
    TupleRef ra(rows.data() + std::size_t(a) * width, &schema);
    TupleRef rb(rows.data() + std::size_t(b) * width, &schema);
    for (const auto& k : node.keys()) {
      int cmp = 0;
      switch (schema.column(k.column).type) {
        case ValueType::kInt64: {
          int64_t va = ra.GetInt64(k.column), vb = rb.GetInt64(k.column);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
          break;
        }
        case ValueType::kDouble: {
          double va = ra.GetDouble(k.column), vb = rb.GetDouble(k.column);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
          break;
        }
        case ValueType::kDate: {
          auto va = ra.GetDate(k.column), vb = rb.GetDate(k.column);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
          break;
        }
        case ValueType::kString: {
          cmp = ra.GetString(k.column).compare(rb.GetString(k.column));
          break;
        }
      }
      if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
    }
    // Total order: break key ties on raw row bytes so top-k (LIMIT)
    // selects a deterministic set, matching the reference executor.
    return std::memcmp(rows.data() + std::size_t(a) * width,
                       rows.data() + std::size_t(b) * width, width) < 0;
  };
  if (node.limit() > 0 && node.limit() < n) {
    // Top-k: only the first `limit` rows in key order are needed.
    std::partial_sort(order.begin(), order.begin() + node.limit(),
                      order.end(), compare_rows);
    order.resize(node.limit());
  } else {
    std::stable_sort(order.begin(), order.end(), compare_rows);
  }

  PageEmitter emitter(width, sink);
  for (uint32_t idx : order) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink);
    if (!emitter.AppendRow(rows.data() + std::size_t(idx) * width)) {
      return FinishNoConsumers(sink);
    }
  }
  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

}  // namespace sharing
