// Shared untrusted-log ingest for the leaps tools.
//
// Opens `path` — "-" means stdin — autodetects the log dialect (the
// detector peeks a single byte, so pipes work), and surfaces corruption
// as a Status the tool turns into a diagnostic + exit code instead of an
// uncaught exception.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "trace/binary_log.h"
#include "trace/partition.h"
#include "util/status.h"

namespace leaps::cli {

/// Reads a raw log (any dialect) from `path`; "-" reads stdin.
inline util::StatusOr<trace::RawLog> read_raw_log_path(
    const std::string& path) {
  if (path == "-") return trace::read_raw_log_any(std::cin);
  std::ifstream is(path, std::ios::binary);
  if (!is) return util::not_found("cannot open " + path);
  return trace::read_raw_log_any(is);
}

/// read_raw_log_path + symbol resolution + stack partitioning.
inline util::StatusOr<trace::PartitionedLog> load_partitioned_log(
    const std::string& path) {
  util::StatusOr<trace::RawLog> raw = read_raw_log_path(path);
  if (!raw.ok()) return raw.status();
  return trace::partition_raw(*raw);
}

/// load_partitioned_log for a tool's command line: on failure prints
/// "<tool>: <path>: <status>" to stderr and exits 1 (the I/O-error code).
inline trace::PartitionedLog load_log_or_exit(const std::string& tool,
                                              const std::string& path) {
  util::StatusOr<trace::PartitionedLog> log = load_partitioned_log(path);
  if (!log.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", tool.c_str(), path.c_str(),
                 log.status().to_string().c_str());
    std::exit(1);
  }
  return *std::move(log);
}

}  // namespace leaps::cli
