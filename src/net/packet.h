// Packet buffers and pools.
//
// Mirrors the mbuf discipline of a DPDK datapath: fixed-capacity buffers
// drawn from a pre-allocated pool, returned on release, never allocated on
// the hot path. Capacity covers jumbo fronthaul frames (100 MHz cells
// generate > 7 KB U-plane frames, paper section 5).
//
// Buffer memory is one contiguous, cache-line-aligned arena per pool,
// carved into fixed 9216-byte slots, so burst-path walks touch sequential
// memory. The arena is reserved up front but committed lazily: a slot's
// pages (and its header) are first touched when the slot is first handed
// out, so a pool costs the slots it carries, not its capacity.
// Replication is zero-copy in the common case: a replica carries a small
// private head (the bytes rewritten per egress - Ethernet MACs, eCPRI
// header) and attaches to the source's payload slot through an atomic
// refcount, the same indirect-mbuf idiom DPDK uses for multicast
// fan-out. Any write that would touch the shared region promotes the
// writer to a private buffer first (copy-on-write), so replicas observe a
// stable snapshot regardless of release order or thread.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace rb {

/// Jumbo-frame capacity: 9000-byte MTU plus L2 headers. A multiple of the
/// cache line size so every arena slot starts line-aligned.
inline constexpr std::size_t kPacketCapacity = 9216;

/// shared_from sentinel: no replica shares any byte of this slot.
inline constexpr std::uint32_t kSlotUnshared = 0xffffffffu;

class PacketPool;

namespace detail {
struct ThreadSlotGuard;  // flushes per-thread magazines at thread exit
}

/// Per-arena-slot shared state. `refcnt` counts every handle that can read
/// the slot (the owning packet plus attached replicas). `shared_from` is
/// the smallest private-head split among attached replicas: bytes at or
/// beyond it are visible to someone else, so an owner write reaching that
/// offset must copy out first.
struct PacketSlot {
  std::atomic<std::uint32_t> refcnt{0};
  std::atomic<std::uint32_t> shared_from{kSlotUnshared};
};

/// One network packet. `len` is the frame length. A packet either owns all
/// of its bytes (seg_base_ == nullptr) or is a replica: bytes [0, split_)
/// live in its private slot, bytes [split_, len) resolve to the shared
/// payload segment it holds a reference on. split_ == 0 with a segment
/// attached is a pure alias (every byte shared).
class Packet {
 public:
  /// Whole-frame read view. For a pure alias this resolves to the shared
  /// segment; for a header-split replica it returns the private slot, in
  /// which bytes beyond split_ are stale - readers that touch payload
  /// bytes must go through bytes().
  std::span<const std::uint8_t> data() const {
    const std::uint8_t* b =
        (seg_base_ != nullptr && split_ == 0) ? seg_base_ : base_;
    return {b, len_};
  }

  /// Read view of [off, off+n), resolved against the shared segment when
  /// the range lies in the shared region. Ranges never straddle the split:
  /// eligible replicas split exactly at the payload start, and callers
  /// read either headers (below) or section payloads (at/above).
  std::span<const std::uint8_t> bytes(std::size_t off, std::size_t n) const {
    assert(off + n <= len_);
    assert(seg_base_ == nullptr || off >= split_ || off + n <= split_);
    const std::uint8_t* b =
        (seg_base_ != nullptr && off >= split_) ? seg_base_ : base_;
    return {b + off, n};
  }

  /// Read view from `off` to the end of the frame.
  std::span<const std::uint8_t> bytes(std::size_t off) const {
    return bytes(off, len_ > off ? len_ - off : 0);
  }

  /// Full-capacity write view. Declares intent to write anywhere, so a
  /// replica promotes to a private copy and a shared owner copies out.
  std::span<std::uint8_t> raw() {
    ensure_writable(kPacketCapacity);
    return {base_, kPacketCapacity};
  }

  /// Write view over [0, len). Same copy-on-write gate as raw().
  std::span<std::uint8_t> mutable_data() {
    ensure_writable(len_);
    return {base_, len_};
  }

  /// Write view over the first min(n, len) bytes. Header rewrites (MACs,
  /// eAxC) stay below a replica's split, so this avoids promotion on the
  /// replication fast path.
  std::span<std::uint8_t> mutable_prefix(std::size_t n) {
    if (n > len_) n = len_;
    ensure_writable(n);
    return {base_, n};
  }

  /// Flatten the resolved frame into `out` (used by checkpointing, which
  /// serializes replicas as full frames).
  void copy_to(std::span<std::uint8_t> out) const;

  std::size_t len() const { return len_; }
  /// Set the frame length after writing into raw(). Clamped to capacity.
  /// Gated like a write: growing a replica promotes it first.
  void set_len(std::size_t n) {
    if (n > kPacketCapacity) n = kPacketCapacity;
    ensure_writable(n);
    len_ = n;
  }

  /// True while this packet's payload bytes live in a shared segment.
  bool shares_payload() const { return seg_base_ != nullptr; }
  /// Private-head length of a replica (0 for pure aliases and owners).
  std::size_t private_split() const { return split_; }
  /// Reference count on this packet's own slot (test/diagnostic hook).
  std::uint32_t slot_refcount() const {
    return own_ps_->refcnt.load(std::memory_order_acquire);
  }

  PacketPool* pool() const { return pool_; }

  /// Virtual receive timestamp (ns since simulation start); set by ports.
  std::int64_t rx_time_ns = 0;
  /// Ingress port identifier for debugging/telemetry.
  std::uint16_t ingress_port = 0;

 private:
  friend class PacketPool;
  friend struct PacketDeleter;

  /// Copy-on-write gate for a write into [0, upto). Fast path: sole owner
  /// of an unshared slot, no work.
  void ensure_writable(std::size_t upto) {
    if (seg_base_ == nullptr &&
        own_ps_->refcnt.load(std::memory_order_relaxed) == 1)
      return;
    ensure_writable_slow(upto);
  }
  void ensure_writable_slow(std::size_t upto);

  std::uint8_t* base_ = nullptr;           // this packet's own arena slot
  PacketSlot* own_ps_ = nullptr;           // state for the own slot
  const std::uint8_t* seg_base_ = nullptr; // shared payload segment, if any
  PacketSlot* seg_ps_ = nullptr;
  PacketPool* seg_pool_ = nullptr;         // pool owning the segment slot
  std::uint32_t split_ = 0;                // private head length when shared
  std::size_t len_ = 0;
  PacketPool* pool_ = nullptr;
};

struct PacketDeleter {
  void operator()(Packet* p) const;
};

/// Owning handle; returning to the pool happens on destruction.
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// Fixed-size pool of packets. alloc() returns nullptr when exhausted,
/// which the ports count as drops - the same back-pressure behaviour an
/// mbuf pool exhibits under overload.
///
/// Thread-safe with per-thread magazines: each worker owns a small
/// free-buffer cache (indexed by a process-wide thread slot), so the
/// steady-state alloc/release pair is lock-free - the mutex-guarded
/// global free list is touched only to refill or flush a magazine, in
/// batches. Packets may cross shard boundaries (a flow's producer and
/// consumer on different workers); buffers then migrate between magazines
/// through the global list.
///
/// Packet headers and arena slots travel the free list paired, so the
/// alloc fast path stays a single pop. The pairing breaks only when an
/// owner dies before its replicas (header parks in spare_pkts_ until the
/// last replica detaches and recycle_slot() re-pairs it) or when an owner
/// copies out of a shared slot (draws a slot from spare_slots_ or breaks
/// a free pair). Replicas may be released on a different thread than the
/// segment owner; the refcount transfer uses acq_rel so the recycler sees
/// every reader's final access.
///
/// Pairs are carved on demand: the free list starts empty, and when it
/// runs dry the next never-used header+slot pair is constructed in place,
/// from index capacity-1 downward - the order an eagerly filled free list
/// would pop them in - so hand-out order is independent of when a pair
/// was carved.
class PacketPool {
 public:
  explicit PacketPool(std::size_t capacity = 4096);
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Get a fresh packet (len 0, metadata cleared); nullptr if exhausted.
  PacketPtr alloc();

  /// Deep-copy a packet (flattens replicas to full frames).
  PacketPtr clone(const Packet& src);

  /// Zero-copy replica of `src` (the A2 replication primitive): copies
  /// only the first `split` bytes (the per-egress-rewritten head) into the
  /// replica's private slot and attaches to src's payload segment via
  /// refcount. split == 0 makes a pure alias sharing every byte. Falls
  /// back to clone() when split >= src.len() (nothing left to share);
  /// nullptr when the pool is exhausted.
  PacketPtr replicate(const Packet& src, std::size_t split);

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const {
    return outstanding_.load(std::memory_order_acquire);
  }
  std::uint64_t alloc_failures() const {
    return alloc_failures_.load(std::memory_order_acquire);
  }

  /// Bytes reserved for the contiguous buffer arena (address space; see
  /// slots_touched() for how much of it has been committed).
  std::size_t arena_bytes() const { return capacity_ * kPacketCapacity; }
  /// Slots carved so far (handed out at least once). Bounds the committed
  /// arena at slots_touched() * kPacketCapacity bytes.
  std::size_t slots_touched() const {
    std::lock_guard<std::mutex> lk(mu_);
    return carved_;
  }
  /// Slots currently referenced by more than one handle.
  std::int64_t shared_segments() const {
    const std::int64_t v = shared_segments_.load(std::memory_order_acquire);
    return v < 0 ? 0 : v;
  }
  /// Copy-on-write promotions (replica privatized or owner copied out).
  std::uint64_t cow_promotions() const {
    return cow_promotions_.load(std::memory_order_acquire);
  }
  /// Replicas served zero-copy (segment attach instead of deep copy).
  std::uint64_t replicas_zero_copy() const {
    return replicas_zero_copy_.load(std::memory_order_acquire);
  }
  /// Owner writes that could not copy out (pool exhausted, wrote in
  /// place). Nonzero means the pool is undersized for the fan-out.
  std::uint64_t cow_fallbacks() const {
    return cow_fallbacks_.load(std::memory_order_acquire);
  }

  /// Process-wide default pool used when callers do not wire their own.
  static PacketPool& default_pool();

 private:
  friend struct PacketDeleter;
  friend class Packet;
  friend struct detail::ThreadSlotGuard;

  /// Per-thread free-buffer cache. Owned exclusively by the thread whose
  /// slot indexes it, so no synchronization on the fast path. The per-pool
  /// effective cap (mag_cap_) shrinks with pool capacity so the caches of
  /// a few threads can never absorb a small pool outright.
  static constexpr std::size_t kMagazineSize = 64;
  struct alignas(64) Magazine {
    std::array<Packet*, kMagazineSize> items;
    std::size_t count = 0;
  };
  /// Threads beyond this many concurrent slots fall back to the locked
  /// path. Slots are recycled at thread exit (after the departing thread's
  /// magazines flush back to every live pool), so only concurrency counts
  /// against the limit, not thread churn.
  static constexpr std::size_t kMaxThreadSlots = 64;

  /// Return a departing thread's cached buffers to the global free list.
  /// Called from the thread-exit guard with the pool registry lock held.
  void flush_magazine(unsigned slot);

  void release(Packet* p);
  /// Drop a replica's segment reference; recycles the slot on last detach.
  void detach_segment(Packet* p);
  /// Return a refcnt==0 arena slot to circulation: re-pair it with a
  /// parked header if one is waiting, else park the slot.
  void recycle_slot(std::uint8_t* slot_base);
  /// Owner writing into a slot replicas still read: move the owner to a
  /// fresh slot, leaving the old bytes to the replicas.
  void owner_copy_out(Packet& p);
  /// Replica writing into the shared region: copy the shared tail into
  /// its private slot and detach.
  void promote(Packet& p);
  /// This thread's magazine, or nullptr when the slot space is exhausted.
  Magazine* my_magazine();
  /// Pop a free header+slot pair, or carve the next never-used one;
  /// nullptr when neither is left. Caller holds mu_.
  Packet* take_pair_locked();
  PacketSlot* slot_state(const std::uint8_t* slot_base) {
    return slots_.get() + std::size_t(slot_base - arena_) / kPacketCapacity;
  }

  /// Storage from std::malloc / std::calloc. Headers and slot states are
  /// trivially destructible, so carved entries need no destructor call.
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  std::size_t capacity_;
  std::size_t mag_cap_;  // min(kMagazineSize, capacity_/8), at least 1
  std::unique_ptr<std::uint8_t, FreeDeleter> arena_storage_;  // calloc'd
  std::uint8_t* arena_ = nullptr;  // 64-byte-aligned view of arena_storage_
  // capacity_ entries of uninitialised storage; entry i is constructed
  // when pair i is carved.
  std::unique_ptr<PacketSlot, FreeDeleter> slots_;
  std::unique_ptr<Packet, FreeDeleter> headers_;
  mutable std::mutex mu_;  // guards free_, spare_*, carved_
  std::size_t carved_ = 0;                // pairs carved so far
  std::vector<Packet*> free_;             // paired header + slot
  std::vector<Packet*> spare_pkts_;       // headers whose slot is still read
  std::vector<std::uint8_t*> spare_slots_;  // slots awaiting a header
  std::unique_ptr<Magazine[]> mags_;  // kMaxThreadSlots entries
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::uint64_t> alloc_failures_{0};
  std::atomic<std::uint64_t> cow_promotions_{0};
  std::atomic<std::uint64_t> replicas_zero_copy_{0};
  std::atomic<std::uint64_t> cow_fallbacks_{0};
  std::atomic<std::int64_t> shared_segments_{0};
};

}  // namespace rb
