#include "table/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/input_file.h"
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
// and are rejected before any allocation sized by them. The header must
// also fit the file: a category count needs four bytes per spelling, and
// the size the header implies must be the file's size (ReadHeader).
constexpr uint32_t kMaxStringLen = 1u << 20;
constexpr uint32_t kMaxAttrs = 1u << 16;
constexpr uint32_t kMaxCategories = 1u << 24;
constexpr uint64_t kMaxRows = uint64_t{1} << 40;

template <typename T>
bool WritePod(std::ostream* f, const T& v) {
  f->write(reinterpret_cast<const char*>(&v), sizeof(T));
  return f->good();
}

template <typename T>
bool ReadPod(std::ifstream* f, T* v) {
  f->read(reinterpret_cast<char*>(v), sizeof(T));
  return f->good();
}

bool WriteString(std::ostream* f, std::string_view s) {
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
  f->seekg(0, std::ios::end);
  const auto file_size = static_cast<uint64_t>(f->tellg());
  f->seekg(0, std::ios::beg);
  if (!f->good()) return Corrupt(path, "cannot determine the file size");
  const auto remaining = [&] {
    return file_size - static_cast<uint64_t>(f->tellg());
  };
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
        if (!ReadPod(f, &ncats) || ncats > kMaxCategories ||
            ncats > remaining() / sizeof(uint32_t)) {
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
  if (out->file_end != file_size) {
    return Corrupt(path, "header implies " + std::to_string(out->file_end) +
                             " bytes, file has " + std::to_string(file_size));
  }
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

/// Column-level invariant check after a bulk load of rows [r0, r0 + n)
/// into `t`: every cell must uphold what a CSV ingest guarantees by
/// construction — null cells carry the sentinel payload, non-null cells
/// lie inside the attribute's domain, and no null bit is set past the last
/// row (a table's bitmaps never hold one, and a later append would read it
/// as null). One tight pass per column, so the near-memcpy load stays
/// cheap.
Status CheckColumn(const Table& t, size_t a, size_t r0,
                   const std::string& path) {
  const AttributeDef& def = t.schema().attribute(a);
  const size_t rows = t.num_rows();
  auto bad = [&](size_t row) {
    return Corrupt(path, "attribute '" + def.name + "' row " +
                             std::to_string(r0 + row) +
                             " violates its domain or null sentinel");
  };
  if (rows % 64 != 0 && (t.null_words(a)[rows / 64] >> (rows % 64)) != 0) {
    return Corrupt(path, "attribute '" + def.name +
                             "' marks nulls past its last row");
  }
  switch (def.type) {
    case DataType::kNumeric:
      for (size_t r = 0; r < rows; ++r) {
        const double v = t.numeric_at(r, a);
        if (t.is_null(r, a)) {
          if (!std::isnan(v)) return bad(r);
        } else if (!(v >= def.numeric_min && v <= def.numeric_max)) {
          return bad(r);
        }
      }
      break;
    case DataType::kNominal: {
      const auto ncats = static_cast<int32_t>(def.categories.size());
      for (size_t r = 0; r < rows; ++r) {
        const int32_t code = t.code_at(r, a);
        if (t.is_null(r, a)) {
          if (code != -1) return bad(r);
        } else if (code < 0 || code >= ncats) {
          return bad(r);
        }
      }
      break;
    }
    case DataType::kDate:
      for (size_t r = 0; r < rows; ++r) {
        const int32_t days = t.code_at(r, a);
        if (t.is_null(r, a)) {
          if (days != 0) return bad(r);
        } else if (days < def.date_min || days > def.date_max) {
          return bad(r);
        }
      }
      break;
  }
  return Status::OK();
}

/// The one dqcol row reader: rows [r0, r0 + n) of every column straight
/// into `out` (a table of the file's schema), column by column — the type
/// byte, the payload, the null bitmap words (r0 is a multiple of 64, so
/// they are whole words of the file), then CheckColumn.
Status ReadDqcolRows(std::ifstream* f, const DqcolHeader& header,
                     const std::string& path, size_t r0, size_t n,
                     Table* out) {
  DQ_DCHECK(r0 % 64 == 0 && r0 + n <= header.rows);
  out->Resize(n);
  for (size_t a = 0; a < out->num_attributes(); ++a) {
    const DataType type = out->schema().attribute(a).type;
    uint8_t type_byte = 0;
    f->seekg(static_cast<std::streamoff>(header.payload_offset[a] - 1));
    if (!ReadPod(f, &type_byte) || type_byte != static_cast<uint8_t>(type)) {
      return Corrupt(path, "column type byte does not match the schema");
    }
    if (n == 0) continue;
    char* payload = type == DataType::kNumeric
                        ? reinterpret_cast<char*>(out->numeric_slots(a))
                        : reinterpret_cast<char*>(out->code_slots(a));
    f->seekg(static_cast<std::streamoff>(header.payload_offset[a] +
                                         r0 * ElemSize(type)));
    f->read(payload, static_cast<std::streamsize>(n * ElemSize(type)));
    f->seekg(static_cast<std::streamoff>(header.bitmap_offset[a] +
                                         (r0 >> 6) * sizeof(uint64_t)));
    f->read(reinterpret_cast<char*>(out->null_word_slots(a)),
            static_cast<std::streamsize>(((n + 63) >> 6) * sizeof(uint64_t)));
    if (!f->good()) return Corrupt(path, "truncated column block");
    DQ_RETURN_NOT_OK(CheckColumn(*out, a, r0, path));
  }
  return Status::OK();
}

/// The codec core: decode and check, no ingest accounting. `file_bytes`
/// (optional) receives the file's size.
Result<Table> LoadTable(const Schema& schema, const std::string& path,
                        uint64_t* file_bytes) {
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  DqcolHeader header;
  DQ_RETURN_NOT_OK(ReadHeader(&f, path, &header));
  DQ_RETURN_NOT_OK(CheckSchemaMatch(schema, header.schema, path));
  Table t(schema);
  DQ_RETURN_NOT_OK(ReadDqcolRows(&f, header, path, 0,
                                 static_cast<size_t>(header.rows), &t));
  if (file_bytes != nullptr) *file_bytes = header.file_end;
  return t;
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

Status WriteDqcolFile(const Table& table, const std::string& path) {
  return WriteFileAtomically(path, [&](std::ostream* f) {
    const Schema& schema = table.schema();
    f->write(kMagic, sizeof(kMagic));
    bool ok = f->good();
    ok = ok && WritePod(f, kEndianTag);
    ok = ok && WritePod(f, static_cast<uint64_t>(table.num_rows()));
    ok = ok && WritePod(f, static_cast<uint32_t>(schema.num_attributes()));
    for (size_t a = 0; ok && a < schema.num_attributes(); ++a) {
      const AttributeDef& def = schema.attribute(a);
      ok = ok && WriteString(f, def.name);
      ok = ok && WritePod(f, static_cast<uint8_t>(def.type));
      switch (def.type) {
        case DataType::kNominal:
          ok = ok &&
               WritePod(f, static_cast<uint32_t>(def.categories.size()));
          for (const std::string& cat : def.categories) {
            ok = ok && WriteString(f, cat);
          }
          break;
        case DataType::kNumeric:
          ok = ok && WritePod(f, def.numeric_min);
          ok = ok && WritePod(f, def.numeric_max);
          break;
        case DataType::kDate:
          ok = ok && WritePod(f, def.date_min);
          ok = ok && WritePod(f, def.date_max);
          break;
      }
    }
    for (size_t a = 0; ok && a < schema.num_attributes(); ++a) {
      const DataType type = schema.attribute(a).type;
      ok = ok && WritePod(f, static_cast<uint8_t>(type));
      if (type == DataType::kNumeric) {
        const std::vector<double>& num = table.numeric_col(a);
        f->write(reinterpret_cast<const char*>(num.data()),
                 static_cast<std::streamsize>(num.size() * sizeof(double)));
      } else {
        const std::vector<int32_t>& code = table.code_col(a);
        f->write(reinterpret_cast<const char*>(code.data()),
                 static_cast<std::streamsize>(code.size() * sizeof(int32_t)));
      }
      const std::vector<uint64_t>& nulls = table.null_words(a);
      f->write(reinterpret_cast<const char*>(nulls.data()),
               static_cast<std::streamsize>(nulls.size() * sizeof(uint64_t)));
      ok = ok && f->good();
    }
    if (!ok) return Status::IOError("short write to dqcol file '" + path + "'");
    return Status::OK();
  });
}

Result<Schema> ReadDqcolSchema(const std::string& path) {
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  DqcolHeader header;
  DQ_RETURN_NOT_OK(ReadHeader(&f, path, &header));
  return std::move(header.schema);
}

Result<Table> ReadDqcolFile(const Schema& schema, const std::string& path,
                            IngestReport* report) {
  obs::Span span("ingest");
  uint64_t bytes = 0;
  DQ_ASSIGN_OR_RETURN(Table t, LoadTable(schema, path, &bytes));
  FillReport(report, t.num_rows(), bytes, span.ElapsedMs());
  BumpCounters(t.num_rows(), bytes);
  obs::GetGauge("table.bytes")->Set(static_cast<double>(t.byte_size()));
  return t;
}

Result<Table> LoadDqcolFile(const Schema& schema, const std::string& path) {
  return LoadTable(schema, path, nullptr);
}

Status ReadDqcolFileChunks(const Schema& schema, const std::string& path,
                           size_t chunk_rows, CsvChunkSink* sink,
                           IngestReport* report) {
  obs::Span span("ingest");
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  DqcolHeader header;
  DQ_RETURN_NOT_OK(ReadHeader(&f, path, &header));
  DQ_RETURN_NOT_OK(CheckSchemaMatch(schema, header.schema, path));
  const auto rows = static_cast<size_t>(header.rows);
  // Chunks start on 64-row boundaries so every null bitmap slice is a
  // whole number of words read straight off the file.
  if (chunk_rows == 0) chunk_rows = 4096;
  chunk_rows = (chunk_rows + 63) & ~size_t{63};
  Table chunk(schema);
  std::vector<uint8_t> keep;
  // At least one read, so an empty file's type bytes are checked too.
  size_t r0 = 0;
  do {
    const size_t n = std::min(chunk_rows, rows - r0);
    DQ_RETURN_NOT_OK(ReadDqcolRows(&f, header, path, r0, n, &chunk));
    if (n > 0) {
      keep.assign(n, 1);
      DQ_RETURN_NOT_OK(sink->OnChunk(chunk, keep));
    }
    r0 += n;
  } while (r0 < rows);
  const auto bytes = static_cast<uint64_t>(header.file_end);
  FillReport(report, header.rows, bytes, span.ElapsedMs());
  BumpCounters(header.rows, bytes);
  return Status::OK();
}

}  // namespace dq
