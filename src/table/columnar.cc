#include "table/columnar.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <cmath>
#include <limits>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dq {

namespace {

// File layout ("dqcol v1", docs/FORMATS.md):
//   magic "DQCOLv1\n"
//   u32 endianness tag 0x01020304 (readers on a foreign byte order refuse)
//   u64 rows, u32 attrs
//   per attribute: u32 name length + bytes, u8 type,
//     nominal: u32 category count, then u32 length + bytes per category
//     numeric: f64 min, f64 max
//     date:    i32 min, i32 max
//   per attribute, in schema order: u8 type,
//     payload (rows * f64 for numeric, rows * i32 otherwise),
//     null bitmap (ceil(rows/64) u64 words, bit r set = row r null)
constexpr char kMagic[8] = {'D', 'Q', 'C', 'O', 'L', 'v', '1', '\n'};
constexpr uint32_t kEndianTag = 0x01020304;

// Corrupt-file guards: no attribute name, category spelling or attribute
// count plausibly exceeds these, so larger values mean a damaged header
// and are rejected before any allocation sized by them.
constexpr uint32_t kMaxStringLen = 1u << 20;
constexpr uint32_t kMaxAttrs = 1u << 16;
constexpr uint32_t kMaxCategories = 1u << 24;
constexpr uint64_t kMaxRows = uint64_t{1} << 40;

template <typename T>
bool WritePod(std::ofstream* f, const T& v) {
  f->write(reinterpret_cast<const char*>(&v), sizeof(T));
  return f->good();
}

template <typename T>
bool ReadPod(std::ifstream* f, T* v) {
  f->read(reinterpret_cast<char*>(v), sizeof(T));
  return f->good();
}

bool WriteString(std::ofstream* f, std::string_view s) {
  const auto len = static_cast<uint32_t>(s.size());
  return WritePod(f, len) &&
         (f->write(s.data(), static_cast<std::streamsize>(s.size())),
          f->good());
}

bool ReadString(std::ifstream* f, std::string* s) {
  uint32_t len = 0;
  if (!ReadPod(f, &len) || len > kMaxStringLen) return false;
  s->resize(len);
  f->read(s->data(), static_cast<std::streamsize>(len));
  return f->good() || (len == 0 && !f->bad());
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IOError("dqcol file '" + path + "': " + what);
}

size_t ElemSize(DataType type) {
  return type == DataType::kNumeric ? sizeof(double) : sizeof(int32_t);
}

/// Parsed header: the embedded schema plus where each column block lives.
struct DqcolHeader {
  uint64_t rows = 0;
  Schema schema;
  std::vector<uint64_t> payload_offset;  // per attr, byte offset of payload
  std::vector<uint64_t> bitmap_offset;   // per attr, byte offset of bitmap
  uint64_t file_end = 0;                 // expected file size
};

Status ReadHeader(std::ifstream* f, const std::string& path,
                  DqcolHeader* out) {
  char magic[sizeof(kMagic)];
  f->read(magic, sizeof(magic));
  if (!f->good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "not a dqcol v1 file");
  }
  uint32_t endian = 0;
  if (!ReadPod(f, &endian)) return Corrupt(path, "truncated header");
  if (endian != kEndianTag) {
    return Corrupt(path, "written on a machine with different byte order");
  }
  uint32_t attrs = 0;
  if (!ReadPod(f, &out->rows) || !ReadPod(f, &attrs)) {
    return Corrupt(path, "truncated header");
  }
  if (out->rows > kMaxRows) return Corrupt(path, "implausible row count");
  if (attrs > kMaxAttrs) return Corrupt(path, "implausible attribute count");
  for (uint32_t a = 0; a < attrs; ++a) {
    std::string name;
    uint8_t type = 0;
    if (!ReadString(f, &name) || !ReadPod(f, &type)) {
      return Corrupt(path, "truncated schema block");
    }
    Status added = Status::OK();
    switch (static_cast<DataType>(type)) {
      case DataType::kNominal: {
        uint32_t ncats = 0;
        if (!ReadPod(f, &ncats) || ncats > kMaxCategories) {
          return Corrupt(path, "truncated schema block");
        }
        std::vector<std::string> cats(ncats);
        for (auto& cat : cats) {
          if (!ReadString(f, &cat)) {
            return Corrupt(path, "truncated schema block");
          }
        }
        added = out->schema.AddNominal(name, std::move(cats));
        break;
      }
      case DataType::kNumeric: {
        double lo = 0, hi = 0;
        if (!ReadPod(f, &lo) || !ReadPod(f, &hi)) {
          return Corrupt(path, "truncated schema block");
        }
        added = out->schema.AddNumeric(name, lo, hi);
        break;
      }
      case DataType::kDate: {
        int32_t lo = 0, hi = 0;
        if (!ReadPod(f, &lo) || !ReadPod(f, &hi)) {
          return Corrupt(path, "truncated schema block");
        }
        added = out->schema.AddDate(name, lo, hi);
        break;
      }
      default:
        return Corrupt(path, "unknown attribute type");
    }
    if (!added.ok()) {
      return Corrupt(path, "invalid schema: " + added.message());
    }
  }
  // Column block offsets are fully determined by the header.
  const uint64_t words = (out->rows + 63) >> 6;
  uint64_t off = static_cast<uint64_t>(f->tellg());
  out->payload_offset.reserve(attrs);
  out->bitmap_offset.reserve(attrs);
  for (uint32_t a = 0; a < attrs; ++a) {
    const DataType type = out->schema.attribute(a).type;
    out->payload_offset.push_back(off + 1);  // past the type byte
    out->bitmap_offset.push_back(off + 1 + out->rows * ElemSize(type));
    off = out->bitmap_offset.back() + words * sizeof(uint64_t);
  }
  out->file_end = off;
  return Status::OK();
}

Status CheckSchemaMatch(const Schema& expected, const Schema& embedded,
                        const std::string& path) {
  auto mismatch = [&](const std::string& what) {
    return Corrupt(path, "schema mismatch: " + what);
  };
  if (embedded.num_attributes() != expected.num_attributes()) {
    return mismatch("expected " + std::to_string(expected.num_attributes()) +
                    " attributes, file has " +
                    std::to_string(embedded.num_attributes()));
  }
  for (size_t a = 0; a < expected.num_attributes(); ++a) {
    const AttributeDef& want = expected.attribute(a);
    const AttributeDef& got = embedded.attribute(a);
    if (want.name != got.name) {
      return mismatch("attribute " + std::to_string(a) + " is '" + got.name +
                      "', expected '" + want.name + "'");
    }
    if (want.type != got.type) {
      return mismatch("attribute '" + want.name + "' has a different type");
    }
    switch (want.type) {
      case DataType::kNominal:
        if (want.categories != got.categories) {
          return mismatch("attribute '" + want.name +
                          "' has a different category list");
        }
        break;
      case DataType::kNumeric:
        if (want.numeric_min != got.numeric_min ||
            want.numeric_max != got.numeric_max) {
          return mismatch("attribute '" + want.name +
                          "' has a different numeric range");
        }
        break;
      case DataType::kDate:
        if (want.date_min != got.date_min || want.date_max != got.date_max) {
          return mismatch("attribute '" + want.name +
                          "' has a different date range");
        }
        break;
    }
  }
  return Status::OK();
}

bool NullBit(const std::vector<uint64_t>& words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}

/// Column-level invariant check after a bulk load: every cell must uphold
/// what a CSV ingest guarantees by construction — null cells carry the
/// sentinel payload, non-null cells lie inside the attribute's domain.
/// One tight pass per column, so the near-memcpy load stays cheap.
Status CheckColumn(const AttributeDef& def, const std::vector<double>& num,
                   const std::vector<int32_t>& code,
                   const std::vector<uint64_t>& nulls, size_t rows,
                   const std::string& path) {
  auto bad = [&](size_t row) {
    return Corrupt(path, "attribute '" + def.name + "' row " +
                             std::to_string(row) +
                             " violates its domain or null sentinel");
  };
  switch (def.type) {
    case DataType::kNumeric:
      for (size_t r = 0; r < rows; ++r) {
        if (NullBit(nulls, r)) {
          if (!std::isnan(num[r])) return bad(r);
        } else if (!(num[r] >= def.numeric_min &&
                     num[r] <= def.numeric_max)) {
          return bad(r);
        }
      }
      break;
    case DataType::kNominal: {
      const auto ncats = static_cast<int32_t>(def.categories.size());
      for (size_t r = 0; r < rows; ++r) {
        if (NullBit(nulls, r)) {
          if (code[r] != -1) return bad(r);
        } else if (code[r] < 0 || code[r] >= ncats) {
          return bad(r);
        }
      }
      break;
    }
    case DataType::kDate:
      for (size_t r = 0; r < rows; ++r) {
        if (NullBit(nulls, r)) {
          if (code[r] != 0) return bad(r);
        } else if (code[r] < def.date_min || code[r] > def.date_max) {
          return bad(r);
        }
      }
      break;
  }
  return Status::OK();
}

void FillReport(IngestReport* rep, uint64_t rows, uint64_t bytes,
                double parse_ms) {
  if (rep == nullptr) return;
  *rep = IngestReport();
  rep->records_total = rows;
  rep->records_kept = rows;
  rep->bytes_read = bytes;
  rep->parse_ms = parse_ms;
  rep->threads_used = 1;
}

void BumpCounters(uint64_t rows, uint64_t bytes) {
  static obs::Counter* const total = obs::GetCounter("ingest.records_total");
  static obs::Counter* const kept = obs::GetCounter("ingest.records_kept");
  static obs::Counter* const read = obs::GetCounter("ingest.bytes_read");
  total->Add(rows);
  kept->Add(rows);
  read->Add(bytes);
}

}  // namespace

Status ColumnarCodec::Write(const Table& table, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const Schema& schema = table.schema();
  f.write(kMagic, sizeof(kMagic));
  bool ok = f.good();
  ok = ok && WritePod(&f, kEndianTag);
  ok = ok && WritePod(&f, static_cast<uint64_t>(table.num_rows()));
  ok = ok && WritePod(&f, static_cast<uint32_t>(schema.num_attributes()));
  for (size_t a = 0; ok && a < schema.num_attributes(); ++a) {
    const AttributeDef& def = schema.attribute(a);
    ok = ok && WriteString(&f, def.name);
    ok = ok && WritePod(&f, static_cast<uint8_t>(def.type));
    switch (def.type) {
      case DataType::kNominal:
        ok = ok &&
             WritePod(&f, static_cast<uint32_t>(def.categories.size()));
        for (const std::string& cat : def.categories) {
          ok = ok && WriteString(&f, cat);
        }
        break;
      case DataType::kNumeric:
        ok = ok && WritePod(&f, def.numeric_min);
        ok = ok && WritePod(&f, def.numeric_max);
        break;
      case DataType::kDate:
        ok = ok && WritePod(&f, def.date_min);
        ok = ok && WritePod(&f, def.date_max);
        break;
    }
  }
  for (size_t a = 0; ok && a < schema.num_attributes(); ++a) {
    const Table::Column& c = table.cols_[a];
    ok = ok && WritePod(&f, static_cast<uint8_t>(c.type));
    if (c.type == DataType::kNumeric) {
      f.write(reinterpret_cast<const char*>(c.num.data()),
              static_cast<std::streamsize>(c.num.size() * sizeof(double)));
    } else {
      f.write(reinterpret_cast<const char*>(c.code.data()),
              static_cast<std::streamsize>(c.code.size() * sizeof(int32_t)));
    }
    f.write(reinterpret_cast<const char*>(c.nulls.data()),
            static_cast<std::streamsize>(c.nulls.size() * sizeof(uint64_t)));
    ok = ok && f.good();
  }
  f.flush();
  if (!ok || !f.good()) {
    return Status::IOError("short write to dqcol file '" + path + "'");
  }
  return Status::OK();
}

Result<Schema> ColumnarCodec::ReadSchema(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  DqcolHeader header;
  DQ_RETURN_NOT_OK(ReadHeader(&f, path, &header));
  return std::move(header.schema);
}

Result<Table> ColumnarCodec::Load(const Schema& schema,
                                  const std::string& path,
                                  uint64_t* file_bytes) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  DqcolHeader header;
  DQ_RETURN_NOT_OK(ReadHeader(&f, path, &header));
  DQ_RETURN_NOT_OK(CheckSchemaMatch(schema, header.schema, path));
  const auto rows = static_cast<size_t>(header.rows);
  const size_t words = (rows + 63) >> 6;
  Table t(schema);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    Table::Column& c = t.cols_[a];
    uint8_t type = 0;
    f.seekg(static_cast<std::streamoff>(header.payload_offset[a] - 1));
    if (!ReadPod(&f, &type) || type != static_cast<uint8_t>(c.type)) {
      return Corrupt(path, "column type byte does not match the schema");
    }
    bool ok;
    if (c.type == DataType::kNumeric) {
      c.num.resize(rows);
      f.read(reinterpret_cast<char*>(c.num.data()),
             static_cast<std::streamsize>(rows * sizeof(double)));
      ok = f.good() || rows == 0;
    } else {
      c.code.resize(rows);
      f.read(reinterpret_cast<char*>(c.code.data()),
             static_cast<std::streamsize>(rows * sizeof(int32_t)));
      ok = f.good() || rows == 0;
    }
    c.nulls.resize(words);
    f.read(reinterpret_cast<char*>(c.nulls.data()),
           static_cast<std::streamsize>(words * sizeof(uint64_t)));
    ok = ok && (f.good() || words == 0);
    if (!ok) return Corrupt(path, "truncated column block");
    DQ_RETURN_NOT_OK(
        CheckColumn(schema.attribute(a), c.num, c.code, c.nulls, rows, path));
  }
  t.num_rows_ = rows;
  if (file_bytes != nullptr) *file_bytes = header.file_end;
  return t;
}

Result<Table> ColumnarCodec::Read(const Schema& schema,
                                  const std::string& path,
                                  IngestReport* report) {
  obs::Span span("ingest");
  uint64_t bytes = 0;
  DQ_ASSIGN_OR_RETURN(Table t, Load(schema, path, &bytes));
  FillReport(report, t.num_rows(), bytes, span.ElapsedMs());
  BumpCounters(t.num_rows(), bytes);
  obs::GetGauge("table.bytes")->Set(static_cast<double>(t.byte_size()));
  return t;
}

Status ColumnarCodec::ReadChunks(const Schema& schema,
                                 const std::string& path, size_t chunk_rows,
                                 CsvChunkSink* sink, IngestReport* report) {
  obs::Span span("ingest");
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  DqcolHeader header;
  DQ_RETURN_NOT_OK(ReadHeader(&f, path, &header));
  DQ_RETURN_NOT_OK(CheckSchemaMatch(schema, header.schema, path));
  const auto rows = static_cast<size_t>(header.rows);
  // Chunks start on 64-row boundaries so every null bitmap slice is a
  // whole number of words read straight off the file.
  if (chunk_rows == 0) chunk_rows = 4096;
  chunk_rows = (chunk_rows + 63) & ~size_t{63};

  TableChunk chunk(schema);
  std::vector<uint64_t> bitmap;
  std::vector<uint8_t> keep;
  std::vector<uint64_t> col_nulls;
  for (size_t r0 = 0; r0 < rows; r0 += chunk_rows) {
    const size_t n = std::min(chunk_rows, rows - r0);
    const size_t chunk_words = (n + 63) >> 6;
    chunk.Reset(n);
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const AttributeDef& def = schema.attribute(a);
      TableChunk::Column& c = chunk.cols_[a];
      f.seekg(static_cast<std::streamoff>(header.payload_offset[a] +
                                          r0 * ElemSize(def.type)));
      bool ok;
      if (def.type == DataType::kNumeric) {
        c.num.resize(n);
        f.read(reinterpret_cast<char*>(c.num.data()),
               static_cast<std::streamsize>(n * sizeof(double)));
        ok = f.good();
      } else {
        c.code.resize(n);
        f.read(reinterpret_cast<char*>(c.code.data()),
               static_cast<std::streamsize>(n * sizeof(int32_t)));
        ok = f.good();
      }
      bitmap.resize(chunk_words);
      f.seekg(static_cast<std::streamoff>(header.bitmap_offset[a] +
                                          (r0 >> 6) * sizeof(uint64_t)));
      f.read(reinterpret_cast<char*>(bitmap.data()),
             static_cast<std::streamsize>(chunk_words * sizeof(uint64_t)));
      ok = ok && f.good();
      if (!ok) return Corrupt(path, "truncated column block");
      DQ_RETURN_NOT_OK(CheckColumn(def, c.num, c.code, bitmap, n, path));
      c.null_.resize(n);
      for (size_t r = 0; r < n; ++r) {
        c.null_[r] = NullBit(bitmap, r) ? 1 : 0;
      }
    }
    keep.assign(n, 1);
    DQ_RETURN_NOT_OK(sink->OnChunk(chunk, keep));
  }
  const auto bytes = static_cast<uint64_t>(header.file_end);
  FillReport(report, header.rows, bytes, span.ElapsedMs());
  BumpCounters(header.rows, bytes);
  return Status::OK();
}

}  // namespace dq
