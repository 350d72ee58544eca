#include "table/table.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dq {

namespace {

Status CheckRowAgainstSchema(const Schema& schema, const Row& row) {
  if (row.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema.num_attributes()));
  }
  for (size_t a = 0; a < row.size(); ++a) {
    if (!schema.attribute(a).InDomain(row[a])) {
      return Status::OutOfRange("cell for attribute '" +
                                schema.attribute(a).name +
                                "' outside domain: " + row[a].ToDebugString());
    }
  }
  return Status::OK();
}

}  // namespace

// --- Table -------------------------------------------------------------------

Table::Table(Schema schema) : schema_(std::move(schema)) {
  cols_.resize(schema_.num_attributes());
  for (size_t a = 0; a < cols_.size(); ++a) {
    cols_[a].type = schema_.attribute(a).type;
  }
}

void Table::PushCell(Column* c, const Value& v) {
  if (v.is_null()) {
    switch (c->type) {
      case DataType::kNumeric:
        c->num.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      case DataType::kNominal:
        c->code.push_back(-1);
        break;
      case DataType::kDate:
        c->code.push_back(0);
        break;
    }
    GrowBits(&c->nulls, num_rows_ + 1);
    SetBit(&c->nulls, num_rows_);
    return;
  }
  switch (c->type) {
    case DataType::kNumeric:
      DQ_DCHECK(v.is_numeric());
      c->num.push_back(v.numeric());
      break;
    case DataType::kNominal:
      DQ_DCHECK(v.is_nominal());
      c->code.push_back(v.nominal_code());
      break;
    case DataType::kDate:
      DQ_DCHECK(v.is_date());
      c->code.push_back(v.date_days());
      break;
  }
  GrowBits(&c->nulls, num_rows_ + 1);
}

Status Table::AppendRow(const Row& row) {
  DQ_RETURN_NOT_OK(CheckRowAgainstSchema(schema_, row));
  AppendRowUnchecked(row);
  return Status::OK();
}

void Table::AppendRowUnchecked(const Row& row) {
  DQ_DCHECK(row.size() == cols_.size());
  for (size_t a = 0; a < cols_.size(); ++a) {
    PushCell(&cols_[a], row[a]);
  }
  ++num_rows_;
}

void Table::AppendRowFrom(const Table& src, size_t src_row) {
  DQ_DCHECK(src.cols_.size() == cols_.size() && src_row < src.num_rows_);
  for (size_t a = 0; a < cols_.size(); ++a) {
    Column& dst = cols_[a];
    const Column& from = src.cols_[a];
    DQ_DCHECK(dst.type == from.type);
    if (dst.type == DataType::kNumeric) {
      dst.num.push_back(from.num[src_row]);
    } else {
      dst.code.push_back(from.code[src_row]);
    }
    GrowBits(&dst.nulls, num_rows_ + 1);
    if (BitIsSet(from.nulls, src_row)) SetBit(&dst.nulls, num_rows_);
  }
  ++num_rows_;
}

void Table::Append(const Table& src, const std::vector<uint8_t>* keep) {
  DQ_DCHECK(src.cols_.size() == cols_.size());
  DQ_DCHECK(keep == nullptr || keep->size() == src.num_rows_);
  const size_t n = src.num_rows_;
  size_t kept = n;
  if (keep != nullptr) {
    kept = static_cast<size_t>(std::count_if(
        keep->begin(), keep->end(), [](uint8_t k) { return k != 0; }));
  }
  if (kept == 0) return;
  // Row num_rows_ + i of this table takes bit i of `src`'s bitmap: word w
  // of `src` lands shifted by `shift` across words at + w and at + w + 1.
  const size_t at = num_rows_ >> 6;
  const size_t shift = num_rows_ & 63;
  for (size_t a = 0; a < cols_.size(); ++a) {
    Column& dst = cols_[a];
    const Column& from = src.cols_[a];
    DQ_DCHECK(dst.type == from.type);
    GrowBits(&dst.nulls, num_rows_ + kept);
    if (kept == n) {
      if (dst.type == DataType::kNumeric) {
        dst.num.insert(dst.num.end(), from.num.begin(), from.num.begin() + n);
      } else {
        dst.code.insert(dst.code.end(), from.code.begin(),
                        from.code.begin() + n);
      }
      // No bit is set past `src`'s last row, so a word's high part is
      // non-zero only when this table has the word it spills into.
      for (size_t w = 0; w < from.nulls.size(); ++w) {
        const uint64_t bits = from.nulls[w];
        if (bits == 0) continue;
        dst.nulls[at + w] |= bits << shift;
        if (shift != 0 && (bits >> (64 - shift)) != 0) {
          dst.nulls[at + w + 1] |= bits >> (64 - shift);
        }
      }
      continue;
    }
    size_t out = num_rows_;
    for (size_t i = 0; i < n; ++i) {
      if ((*keep)[i] == 0) continue;
      if (dst.type == DataType::kNumeric) {
        dst.num.push_back(from.num[i]);
      } else {
        dst.code.push_back(from.code[i]);
      }
      if (BitIsSet(from.nulls, i)) SetBit(&dst.nulls, out);
      ++out;
    }
  }
  num_rows_ += kept;
}

void Table::Resize(size_t rows) {
  for (Column& c : cols_) {
    if (c.type == DataType::kNumeric) {
      c.num.resize(rows);
    } else {
      c.code.resize(rows);
    }
    c.nulls.assign((rows + 63) >> 6, 0);
  }
  num_rows_ = rows;
}

Row Table::row(size_t i) const {
  DQ_DCHECK(i < num_rows_);
  Row out(cols_.size());
  for (size_t a = 0; a < cols_.size(); ++a) {
    out[a] = cell(i, a);
  }
  return out;
}

Value Table::cell_at(size_t row, size_t attr) const {
  if (row >= num_rows_ || attr >= cols_.size()) {
    throw std::out_of_range("Table::cell_at(" + std::to_string(row) + ", " +
                            std::to_string(attr) + ") outside " +
                            std::to_string(num_rows_) + "x" +
                            std::to_string(cols_.size()));
  }
  return cell(row, attr);
}

void Table::RemoveRows(const std::vector<size_t>& sorted_rows) {
  if (sorted_rows.empty() || num_rows_ == 0) return;
  // Byte-wide removal mask once, then one stable compaction pass per column.
  std::vector<uint8_t> remove(num_rows_, 0);
  for (size_t i = 0; i < sorted_rows.size(); ++i) {
    DQ_DCHECK(sorted_rows[i] < num_rows_);
    DQ_DCHECK(i == 0 || sorted_rows[i - 1] <= sorted_rows[i]);
    remove[sorted_rows[i]] = 1;
  }
  size_t kept = 0;
  for (uint8_t r : remove) kept += r == 0 ? 1 : 0;
  if (kept == num_rows_) return;
  for (Column& c : cols_) {
    std::vector<uint64_t> new_nulls;
    GrowBits(&new_nulls, kept);
    size_t out = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (remove[r] != 0) continue;
      if (c.type == DataType::kNumeric) {
        c.num[out] = c.num[r];
      } else {
        c.code[out] = c.code[r];
      }
      if (BitIsSet(c.nulls, r)) SetBit(&new_nulls, out);
      ++out;
    }
    if (c.type == DataType::kNumeric) {
      c.num.resize(kept);
    } else {
      c.code.resize(kept);
    }
    c.nulls = std::move(new_nulls);
  }
  num_rows_ = kept;
}

void Table::Reserve(size_t n) {
  for (Column& c : cols_) {
    if (c.type == DataType::kNumeric) {
      c.num.reserve(n);
    } else {
      c.code.reserve(n);
    }
    c.nulls.reserve((n + 63) >> 6);
  }
}

void Table::Clear() {
  for (Column& c : cols_) {
    c.num.clear();
    c.code.clear();
    c.nulls.clear();
  }
  num_rows_ = 0;
}

size_t Table::byte_size() const {
  // Residency = typed column payloads + null bitmaps + the schema string
  // pool (nominal cells are dictionary codes; their spellings are bytes
  // this table keeps alive). Leaving out the bitmaps or the pool made the
  // table.bytes gauge — and any memory-budget accounting built on it —
  // under-report what the table actually holds.
  size_t bytes = schema_.string_pool_bytes();
  for (const Column& c : cols_) {
    bytes += c.num.size() * sizeof(double);
    bytes += c.code.size() * sizeof(int32_t);
    bytes += c.nulls.size() * sizeof(uint64_t);
  }
  return bytes;
}

Status Table::Validate() const {
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t a = 0; a < cols_.size(); ++a) {
      const Value v = cell(r, a);
      if (!schema_.attribute(a).InDomain(v)) {
        return Status::OutOfRange(
            "row " + std::to_string(r) + ": cell for attribute '" +
            schema_.attribute(a).name +
            "' outside domain: " + v.ToDebugString());
      }
    }
  }
  return Status::OK();
}

}  // namespace dq
