#pragma once

/// \file thread_buffers.hpp
/// Per-thread append buffers shared by the trace and event-log collectors.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mldcs::obs::detail {

/// One `vector<T>` per thread, registered on the thread's first append() in
/// one leaked list (records outlive their thread and static teardown).
/// A buffer's mutex serializes its owner's appends against a concurrent
/// drain, so appends never contend across threads.  There is one set of
/// buffers per record type T.
template <typename T>
class ThreadBuffers {
 public:
  static void append(const T& record) {
    thread_local Buffer* const mine = [] {
      List& l = list();
      const std::lock_guard<std::mutex> lock(l.mu);
      l.buffers.push_back(std::make_unique<Buffer>());
      return l.buffers.back().get();
    }();
    const std::lock_guard<std::mutex> lock(mine->mu);
    mine->records.push_back(record);
  }

  /// Call `f(index, records)` on every buffer, each under its lock, in
  /// registration order; a buffer keeps its index for the process lifetime.
  template <typename F>
  static void for_each(F&& f) {
    List& l = list();
    const std::lock_guard<std::mutex> lock(l.mu);
    for (std::size_t i = 0; i < l.buffers.size(); ++i) {
      const std::lock_guard<std::mutex> buf_lock(l.buffers[i]->mu);
      f(static_cast<std::uint32_t>(i), l.buffers[i]->records);
    }
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<T> records;
  };
  struct List {
    std::mutex mu;  ///< guards `buffers` (registration and drains)
    std::vector<std::unique_ptr<Buffer>> buffers;
  };
  static List& list() {
    static List* const l = new List;
    return *l;
  }
};

}  // namespace mldcs::obs::detail
