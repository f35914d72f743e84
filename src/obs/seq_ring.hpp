#pragma once

/// \file seq_ring.hpp
/// The flight recorder's one crash-readable store (heartbeat frames, the
/// event tail, the profiler appendix): a ring of payload slots that normal
/// context publishes into and a signal handler copies out of, lock-free.
/// Publish number t goes to slot t % slots, whose ticket word reads 2t+1
/// while the payload is written and 2t+2 once it is complete (0: never
/// written).  A reader keeps a copy only if the ticket still reads what it
/// started from; tickets never repeat, so any number of publishes during a
/// copy is caught, which a 0/1 "current half" index cannot promise.
/// Payload words are stored with release and loaded with acquire order: a
/// word from a later publish makes the re-check see that publish's odd
/// ticket.  (ThreadSanitizer does not model the equivalent acquire fence,
/// and GCC rejects fences under -fsanitize=thread.)  docs/OBSERVABILITY.md,
/// "One publication protocol", has the full argument.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace mldcs::obs::detail {

template <std::size_t kSlotBytes>
class SeqRing {
  static_assert(kSlotBytes > 0 && kSlotBytes % 8 == 0,
                "slots hold whole 64-bit words");

 public:
  explicit SeqRing(std::size_t slots)
      : n_(slots == 0 ? 1 : slots), slots_(new Slot[n_]) {}
  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  [[nodiscard]] std::size_t slots() const noexcept { return n_; }

  /// Hide every payload published so far from readers.  Normal context,
  /// serialized with publish() by the caller.
  void clear() noexcept { floor_.store(next_, std::memory_order_release); }

  /// Store `payload` as the newest entry, overwriting the oldest slot.
  /// Normal context; callers serialize publishes.  Returns false, and
  /// publishes nothing, when the payload is longer than kSlotBytes.
  bool publish(std::string_view payload) noexcept {
    if (payload.size() > kSlotBytes) return false;
    const std::uint64_t t = next_++;
    Slot& s = slots_[t % n_];
    s.seq.store(2 * t + 1, std::memory_order_relaxed);
    for (std::size_t w = 0; w * 8 < payload.size(); ++w) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 8 && w * 8 + b < payload.size(); ++b) {
        word |= std::uint64_t{static_cast<unsigned char>(payload[w * 8 + b])}
                << (8 * b);
      }
      s.words[w].store(word, std::memory_order_release);
    }
    s.len.store(payload.size(), std::memory_order_release);
    s.seq.store(2 * t + 2, std::memory_order_release);
    return true;
  }

  /// Copy the newest payload into `dst` and return its length.  Returns
  /// 0 when nothing is published, when it does not fit in `cap` (whole
  /// payload or nothing), or when publishes keep tearing the copy.
  /// Async-signal-safe: atomic loads and byte stores only.
  std::size_t copy_newest(char* dst, std::size_t cap) const noexcept {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const std::uint64_t end = end_ticket();
      if (end == 0) return 0;
      const std::size_t len = copy(end - 1, dst, cap);
      if (len != kTorn) return len;
    }
    return 0;
  }

  /// Call `fn(const char* bytes, std::size_t len)` on every payload still
  /// in the ring, oldest first, skipping any a concurrent publish tore;
  /// returns how many `fn` saw.  Async-signal-safe when `fn` is.
  template <typename Fn>
  std::size_t for_each_oldest_first(Fn&& fn) const noexcept {
    const std::uint64_t end = end_ticket();
    if (end == 0) return 0;
    std::uint64_t first = floor_.load(std::memory_order_acquire);
    if (end - first > n_) first = end - n_;
    char buf[kSlotBytes];
    std::size_t seen = 0;
    for (std::uint64_t t = first; t < end; ++t) {
      const std::size_t len = copy(t, buf, sizeof(buf));
      if (len == kTorn) continue;
      fn(static_cast<const char*>(buf), len);
      ++seen;
    }
    return seen;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> len{0};
    std::atomic<std::uint64_t> words[kSlotBytes / 8];
  };

  static constexpr std::size_t kTorn = ~std::size_t{0};

  /// One past the newest published ticket that clear() has not hidden,
  /// or 0 when there is none.
  std::uint64_t end_ticket() const noexcept {
    std::uint64_t max_seq = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t q = slots_[i].seq.load(std::memory_order_acquire);
      if (q % 2 == 0 && q > max_seq) max_seq = q;
    }
    const std::uint64_t end = max_seq / 2;
    return end > floor_.load(std::memory_order_acquire) ? end : 0;
  }

  /// Copy ticket t's payload into `dst`; kTorn when the slot no longer
  /// (or not yet) holds t, the payload exceeds `cap`, or a publish tore
  /// the copy.
  std::size_t copy(std::uint64_t t, char* dst, std::size_t cap) const noexcept {
    const Slot& s = slots_[t % n_];
    const std::uint64_t want = 2 * t + 2;
    if (s.seq.load(std::memory_order_acquire) != want) return kTorn;
    const std::uint64_t len = s.len.load(std::memory_order_acquire);
    if (len > cap || len > kSlotBytes) return kTorn;
    for (std::size_t w = 0; w * 8 < len; ++w) {
      const std::uint64_t word = s.words[w].load(std::memory_order_acquire);
      for (std::size_t b = 0; b < 8 && w * 8 + b < len; ++b) {
        dst[w * 8 + b] = static_cast<char>((word >> (8 * b)) & 0xff);
      }
    }
    if (s.seq.load(std::memory_order_acquire) != want) return kTorn;
    return static_cast<std::size_t>(len);
  }

  const std::size_t n_;
  const std::unique_ptr<Slot[]> slots_;
  std::uint64_t next_ = 0;  ///< next ticket; written by publish() only
  std::atomic<std::uint64_t> floor_{0};  ///< tickets below are cleared
};

}  // namespace mldcs::obs::detail
