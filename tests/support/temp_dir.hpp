// Per-test scratch directory: a fresh mkdtemp(3) directory under /tmp,
// removed together with everything in it when the owner goes out of scope.
// Tests that run servers give each server its own spool and journal
// directories this way, so parallel ctest processes never share on-disk
// state.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace bfvr::test {

class TempDir {
 public:
  explicit TempDir(const std::string& tag = "bfvr") {
    std::string tmpl = "/tmp/" + tag + "_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace bfvr::test
