// A simulated process: hosts a stack of protocol layers (Neko-style) and
// implements the software-crash semantics of the paper.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace fdgm::net {

class System;

/// Interface implemented by every protocol layer living on a Node.
class Layer {
 public:
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  virtual ~Layer() = default;

  /// Called when a message addressed to this layer's protocol arrives.
  virtual void on_message(const Message& m) = 0;
};

class Node {
 public:
  Node(ProcessId id, System& sys) : id_(id), sys_(&sys) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] sim::Time crash_time() const { return crash_time_; }
  [[nodiscard]] System& system() { return *sys_; }

  /// Route messages of `proto` to `layer`.  Passing nullptr unregisters.
  void register_handler(ProtocolId proto, Layer* layer);

  /// Point-to-point send to another process (std::logic_error for self:
  /// a process handles its own messages locally).  Silently dropped if
  /// this process has crashed (a dead process submits no new work to its
  /// CPU).
  void send(ProcessId dst, ProtocolId proto, PayloadPtr payload);

  /// Multicast to every listed destination except this process.  Lets
  /// callers pass a stable membership vector directly instead of building
  /// a self-excluding copy per send.  A no-op (not even a send-side CPU
  /// job) when no destination other than self remains.
  void multicast_others(const std::vector<ProcessId>& dsts, ProtocolId proto, PayloadPtr payload);

  /// Software crash: no message passes between the process and its CPU
  /// from now on.  In-flight CPU/network jobs complete normally.
  void crash();

  /// Restart after a crash: the process resumes sending and receiving.
  /// Protocol-level catch-up (GM rejoin, FD log sync) is the stacks'
  /// business — see AtomicBroadcastProcess::on_restart.
  void restart();

  /// Bumped on every restart; lets delayed callbacks detect that the
  /// process they targeted crashed (or re-crashed) in the meantime.
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }

  /// Entry point for finished deliveries: called by the Network after
  /// receive-side CPU processing, or by the transport when it releases an
  /// in-order frame.
  void deliver(const Message& m);

  /// Messages this node handed to the network / received, for tests.
  [[nodiscard]] std::uint64_t sent_count() const { return sent_; }
  [[nodiscard]] std::uint64_t received_count() const { return received_; }

 private:
  ProcessId id_;
  System* sys_;
  std::array<Layer*, kProtocolCount> handlers_{};
  bool crashed_ = false;
  sim::Time crash_time_ = -1.0;
  std::uint64_t incarnation_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace fdgm::net
