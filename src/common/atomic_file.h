// Atomic replacement of output files.
//
// Every file a tool writes for a reader goes through WriteFileAtomically:
// reports, corrected tables, saved models, a compacted history ledger,
// dqcol files (dqconvert's output and the segment store's spills alike),
// ingest reports, metrics and trace exports, bench reports, and dqgen's
// and dqsuggest's outputs. The bytes go to a sibling `<path>.tmp` that is
// renamed over `path` only once it is complete, so a failed or interrupted
// write — a full disk, a file size limit — never leaves a half-written
// file at `path`. Only the history ledger's append writes in place.

#ifndef DQ_COMMON_ATOMIC_FILE_H_
#define DQ_COMMON_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dq {

/// \brief Writes `path` through `write`, which receives a binary stream on
/// `<path>.tmp`; the tmp file replaces `path` by rename once `write`
/// returns OK and every byte reached the file. On any failure (open,
/// `write` returning an error, a short write, the rename) the tmp file is
/// removed, an existing file at `path` is left unchanged, and the error is
/// returned.
Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(std::ostream*)>& write);

/// \brief WriteFileAtomically with the file's whole `contents` at hand.
Status WriteFileAtomically(const std::string& path, std::string_view contents);

}  // namespace dq

#endif  // DQ_COMMON_ATOMIC_FILE_H_
