// dqcol v1: write-once binary columnar table files (docs/FORMATS.md).
//
// The repository's one binary table codec: dqconvert and the dqcol ingest
// backend read and write it as an interchange format, and SegmentStore
// spills its segments as dqcol scratch files. A dqcol file carries its
// full schema (attribute names, types and domains) and an endianness tag,
// so it can be opened without out-of-band metadata and refuses to load on
// a foreign machine instead of decoding garbage. Column
// payloads and null bitmaps are stored verbatim in the Table's SoA layout,
// so loading is a near-memcpy — no tokenizing, no value parsing, no
// dictionary lookups — and a CSV -> Table -> dqcol -> Table round trip is
// bitwise identical. Repeat audits of the same extract convert once
// (dqconvert) and then skip CSV parsing entirely.
//
// The reader exposes the same two shapes as the CSV reader: a whole-table
// load and a chunked load feeding a CsvChunkSink, which is the pluggable
// ingest-backend seam (table/ingest_backend.h) the streaming auditor sits
// on. Both count as ingest (an `ingest` span, the ingest.* counters); the
// whole-table load also has a codec-only core for scratch files the
// process reads back itself. All three read through one routine that
// copies rows [r0, r0 + n) of every column — type byte, payload, null
// bitmap words — straight into a Table and checks each column, so they
// accept and reject exactly the same files.

#ifndef DQ_TABLE_COLUMNAR_H_
#define DQ_TABLE_COLUMNAR_H_

#include <string>

#include "common/result.h"
#include "table/csv.h"
#include "table/ingest_report.h"
#include "table/table.h"

namespace dq {

/// \brief Writes `table` (payloads, null bitmaps and schema) to a dqcol v1
/// file at `path` through WriteFileAtomically: a failed write leaves any
/// existing file unchanged.
Status WriteDqcolFile(const Table& table, const std::string& path);

/// \brief Reads just the embedded schema of a dqcol file.
Result<Schema> ReadDqcolSchema(const std::string& path);

/// \brief Loads a dqcol file into a Table. The file's embedded schema must
/// match `schema` exactly (names, types, domains, category order); every
/// column is checked against its domain and null bitmap after the bulk
/// load, so the result upholds the same invariants as a CSV ingest.
/// `report`, when given, receives the ingest counters (all records kept —
/// dqcol files are written from already-validated tables, there is no
/// quarantine path).
Result<Table> ReadDqcolFile(const Schema& schema, const std::string& path,
                            IngestReport* report = nullptr);

/// \brief ReadDqcolFile without ingest accounting: the same schema and
/// per-cell domain checks, but no `ingest` span, no ingest.* counters and
/// no table.bytes gauge. For scratch files the process wrote itself, such
/// as SegmentStore spills, whose reloads are not ingest.
Result<Table> LoadDqcolFile(const Schema& schema, const std::string& path);

/// \brief Streaming variant of ReadDqcolFile: delivers the rows to `sink`
/// in chunks of `chunk_rows` (rounded up to a multiple of 64 so null
/// bitmap slices stay word-aligned), keeping memory bounded by one chunk.
/// The delivered record sequence is identical to ReadDqcolFile's rows.
Status ReadDqcolFileChunks(const Schema& schema, const std::string& path,
                           size_t chunk_rows, CsvChunkSink* sink,
                           IngestReport* report = nullptr);

}  // namespace dq

#endif  // DQ_TABLE_COLUMNAR_H_
