#include "common/input_file.h"

#include <filesystem>

namespace dq {

Result<std::ifstream> OpenInputFile(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError("cannot read '" + path + "': it is a directory");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return in;
}

}  // namespace dq
