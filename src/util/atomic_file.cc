#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/failpoint.h"

namespace kdv {

namespace {

std::string Errno(const char* what, const std::string& path) {
  return std::string(what) + " " + path + " failed: " + std::strerror(errno);
}

// Writes all of [data, data+len) to fd, retrying partial writes. Under the
// io.write failpoint only the first half lands before the failure — the
// on-disk state a crash mid-write (or ENOSPC) leaves behind.
Status WriteAll(int fd, const char* data, size_t len,
                const std::string& path) {
  Status injected = KDV_FAILPOINT_STATUS("io.write");
  if (!injected.ok()) {
    size_t half = len / 2;
    while (half > 0) {
      ssize_t n = ::write(fd, data, half);
      if (n <= 0) break;
      data += n;
      half -= static_cast<size_t>(n);
    }
    return DataLossError("short write to " + path +
                         " (injected io.write fault)");
  }
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return DataLossError(Errno("write to", path));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return OkStatus();
}

Status FsyncFd(int fd, const std::string& path) {
  Status injected = KDV_FAILPOINT_STATUS("io.fsync");
  if (!injected.ok()) {
    return DataLossError("fsync of " + path + " failed (injected io.fsync "
                         "fault)");
  }
  if (::fsync(fd) != 0) return DataLossError(Errno("fsync of", path));
  return OkStatus();
}

Status RenameFile(const std::string& from, const std::string& to) {
  Status injected = KDV_FAILPOINT_STATUS("io.rename");
  if (!injected.ok()) {
    return DataLossError("rename " + from + " -> " + to +
                         " failed (injected io.rename fault)");
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return DataLossError(Errno("rename of", from));
  }
  return OkStatus();
}

std::string ParentDirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

std::string TempPathFor(const std::string& path) { return path + ".kdvtmp"; }

Status FsyncParentDir(const std::string& path) {
  const std::string dir = ParentDirOf(path);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    // Some filesystems refuse O_RDONLY directory fds; the rename itself
    // already happened, so degrade to best-effort rather than failing the
    // caller's committed write.
    return OkStatus();
  }
  Status status = FsyncFd(fd, dir);
  ::close(fd);
  return status;
}

Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t len) {
  const std::string temp = TempPathFor(path);
  // O_TRUNC reclaims any stale temp a crashed writer left behind.
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return NotFoundError(Errno("open of", temp));

  Status status = WriteAll(fd, static_cast<const char*>(data), len, temp);
  if (status.ok()) status = FsyncFd(fd, temp);
  if (::close(fd) != 0 && status.ok()) {
    status = DataLossError(Errno("close of", temp));
  }
  // On failure the torn temp is left on disk deliberately: that is exactly
  // the state a crash would leave, and what recovery must cope with. The
  // target `path` has not been touched.
  if (!status.ok()) return status;

  KDV_RETURN_IF_ERROR(RenameFile(temp, path));
  return FsyncParentDir(path);
}

Status AtomicWriteFile(const std::string& path, const std::string& data) {
  return AtomicWriteFile(path, data.data(), data.size());
}

}  // namespace kdv
