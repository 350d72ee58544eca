// Opening user-named input files. std::ifstream opens a directory and takes
// the failed read for the end of the file, so every reader of a path a user
// names opens it here, where a directory is refused up front.

#ifndef DQ_COMMON_INPUT_FILE_H_
#define DQ_COMMON_INPUT_FILE_H_

#include <fstream>
#include <string>

#include "common/result.h"

namespace dq {

/// \brief Opens `path` for binary reading. Fails with an IOError naming
/// the path when it cannot be opened or is a directory; pipes and other
/// files that are not regular stay readable.
Result<std::ifstream> OpenInputFile(const std::string& path);

}  // namespace dq

#endif  // DQ_COMMON_INPUT_FILE_H_
