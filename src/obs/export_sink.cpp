#include "obs/export_sink.hpp"

#include <filesystem>
#include <stdexcept>

namespace fdgm::obs {

namespace {

void open(const std::string& path, std::ofstream& out) {
  if (path.empty()) return;
  const auto parent = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory '" + parent.string() + "' for " + path +
                             ": " + ec.message());
  }
  out.open(path);
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

ExportSink::ExportSink(const Paths& paths, std::ostream& warn)
    : trace_{paths.trace, {}},
      metrics_{paths.metrics, {}},
      per_node_{paths.metrics_per_node, {}},
      critical_path_{paths.critical_path, {}},
      warn_(warn) {
  for (File* f : {&trace_, &metrics_, &per_node_, &critical_path_}) open(f->path, f->out);
}

void ExportSink::write(const Observer& o) {
  if (written_.exchange(true)) return;
  const std::uint64_t spans = o.spans_dropped();
  const std::uint64_t edges = o.edges_dropped();
  const std::uint64_t snapshots = o.snapshots_dropped();
  const bool dropped = spans + edges + snapshots > 0;
  const auto emit = [&](File& f, void (Observer::*writer)(std::ostream&) const, bool csv) {
    if (!f.out.is_open()) return;
    (o.*writer)(f.out);
    if (dropped && csv) {
      f.out << "# dropped spans=" << spans << ",edges=" << edges << ",snapshots=" << snapshots
            << '\n';
    }
    f.out.close();
    if (!f.out) warn_ << "obs: error writing " << f.path << '\n';
  };
  emit(trace_, &Observer::write_trace_json, false);
  emit(metrics_, &Observer::write_metrics_csv, true);
  emit(per_node_, &Observer::write_metrics_per_node_csv, true);
  emit(critical_path_, &Observer::write_critical_path_csv, true);
  if (dropped) {
    warn_ << "obs: the exported run dropped spans=" << spans << ", edges=" << edges
          << ", snapshots=" << snapshots << " (flight-recorder slabs full); exports truncated\n";
  }
}

}  // namespace fdgm::obs
