#include "common/atomic_file.h"

#include <filesystem>
#include <fstream>

namespace dq {

Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(std::ostream*)>& write) {
  const std::string tmp = path + ".tmp";
  Status written;
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::IOError("cannot open '" + tmp + "' for writing");
    written = write(&f);
    f.close();
    if (written.ok() && !f) {
      written = Status::IOError("short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  if (written.ok()) {
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      written = Status::IOError("cannot rename '" + tmp + "' to '" + path +
                                "': " + ec.message());
    }
  }
  if (!written.ok()) std::filesystem::remove(tmp, ec);
  return written;
}

}  // namespace dq
