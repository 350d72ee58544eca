// Atomic replacement of output files.
//
// Every file a tool writes for a reader (reports, corrected tables, saved
// models, a compacted history ledger) goes through WriteFileAtomically: the
// bytes go to a sibling `<path>.tmp` that is renamed over `path` only once
// it is complete, so a failed or interrupted write never leaves a
// half-written file at `path`.

#ifndef DQ_COMMON_ATOMIC_FILE_H_
#define DQ_COMMON_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>

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

}  // namespace dq

#endif  // DQ_COMMON_ATOMIC_FILE_H_
