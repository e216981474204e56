// Write-once destination of one armed run's exports (fdgm_bench --trace /
// --metrics / --metrics-per-node / --critical-path).  The owner opens it
// before any simulation runs, so an unwritable path fails up front, and
// passes it to the runner through Config::sink; the runner hands it
// replica 0's Observer after that replica's run.  This is the only file
// I/O in src/obs/: the Observer just formats onto the streams it is given.
#pragma once

#include <atomic>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/observer.hpp"

namespace fdgm::obs {

class ExportSink {
 public:
  struct Paths {  // empty = that export is off
    std::string trace;             // Chrome trace-event JSON
    std::string metrics;           // windowed counter-registry CSV
    std::string metrics_per_node;  // the same, one row per node per window
    std::string critical_path;     // per-message cause decomposition CSV
  };

  /// Creates missing parent directories and opens (truncates) every
  /// non-empty path; throws std::runtime_error naming the path when one
  /// cannot be opened.  Drop warnings go to `warn`.
  explicit ExportSink(const Paths& paths, std::ostream& warn = std::cerr);

  [[nodiscard]] bool written() const { return written_.load(); }

  /// Writes every open export from `o` the first time it is called.  When
  /// `o` dropped spans, edges or snapshots, each CSV export ends with a
  /// `# dropped spans=..,edges=..,snapshots=..` line and one warning goes
  /// to `warn`; exports without drops carry no footer.
  void write(const Observer& o);

 private:
  struct File {
    std::string path;
    std::ofstream out;
  };
  File trace_, metrics_, per_node_, critical_path_;
  std::ostream& warn_;
  std::atomic<bool> written_{false};
};

}  // namespace fdgm::obs
