#include "net/packet.h"

#include <cstring>
#include <new>
#include <type_traits>

namespace rb {
namespace {

/// Registry of live pools plus the recycled-thread-slot stack. Both are
/// leaked intentionally so main-thread thread_local destructors (which run
/// before static destruction) and pool destructors in any order stay safe.
std::mutex& registry_mu() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::vector<PacketPool*>& live_pools() {
  static auto* v = new std::vector<PacketPool*>;
  return *v;
}

std::vector<unsigned>& retired_slots() {
  static auto* v = new std::vector<unsigned>;
  return *v;
}

unsigned g_thread_slot_counter = 0;  // guarded by registry_mu()

}  // namespace

namespace detail {

/// Process-wide thread slot: each thread that touches a pool gets a small
/// index addressing its magazine in every pool. At thread exit the guard
/// flushes this thread's cached buffers back to every live pool (buffers
/// must not strand in a dead thread's magazine) and recycles the slot, so
/// only concurrent threads count against kMaxThreadSlots. Threads beyond
/// that degrade to the locked path (correct, just slower).
struct ThreadSlotGuard {
  unsigned slot;
  ThreadSlotGuard() {
    std::lock_guard<std::mutex> lk(registry_mu());
    if (!retired_slots().empty()) {
      slot = retired_slots().back();
      retired_slots().pop_back();
    } else {
      slot = g_thread_slot_counter++;
    }
  }
  ~ThreadSlotGuard() {
    std::lock_guard<std::mutex> lk(registry_mu());
    if (slot < PacketPool::kMaxThreadSlots) {
      for (PacketPool* pool : live_pools()) pool->flush_magazine(slot);
      retired_slots().push_back(slot);
    }
  }
};

}  // namespace detail

namespace {

unsigned thread_slot() {
  thread_local detail::ThreadSlotGuard guard;
  return guard.slot;
}

}  // namespace

void PacketDeleter::operator()(Packet* p) const {
  if (p && p->pool_) p->pool_->release(p);
}

void Packet::copy_to(std::span<std::uint8_t> out) const {
  const std::size_t n = len_ < out.size() ? len_ : out.size();
  if (seg_base_ == nullptr) {
    std::memcpy(out.data(), base_, n);
    return;
  }
  const std::size_t head = split_ < n ? split_ : n;
  std::memcpy(out.data(), base_, head);
  if (n > head) std::memcpy(out.data() + head, seg_base_ + head, n - head);
}

void Packet::ensure_writable_slow(std::size_t upto) {
  if (seg_base_ != nullptr) {
    if (upto <= split_) return;  // write confined to the private head
    pool_->promote(*this);
    return;
  }
  // Owner whose slot replicas still read. Observing our own refcnt > 1 is
  // race-free: attaching requires a live handle on this packet, and the
  // writer holds the only owner handle, so the count can only fall.
  // Writes ending at or below shared_from touch bytes every replica
  // carries privately.
  if (upto <= own_ps_->shared_from.load(std::memory_order_relaxed)) return;
  pool_->owner_copy_out(*this);
}

namespace {

/// Never-null wrapper for the pool's C allocations (make_unique would have
/// thrown on failure too).
template <class T>
T* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<T*>(p);
}

}  // namespace

PacketPool::PacketPool(std::size_t capacity) : capacity_(capacity) {
  static_assert(std::is_trivially_destructible_v<Packet> &&
                    std::is_trivially_destructible_v<PacketSlot>,
                "carved headers and slot states are never destroyed");
  mag_cap_ = capacity_ / 8;
  if (mag_cap_ > kMagazineSize) mag_cap_ = kMagazineSize;
  if (mag_cap_ == 0) mag_cap_ = 1;
  // calloc, not a zero-filling new[]: an arena this size comes from fresh
  // mmap pages that calloc knows are zero, so nothing is written here and
  // a slot commits its pages on first write. An unwritten slot reads zero.
  arena_storage_.reset(
      checked<std::uint8_t>(std::calloc(capacity * kPacketCapacity + 63, 1)));
  const std::uintptr_t raw =
      reinterpret_cast<std::uintptr_t>(arena_storage_.get());
  arena_ = reinterpret_cast<std::uint8_t*>((raw + 63) & ~std::uintptr_t(63));
  slots_.reset(checked<PacketSlot>(std::malloc(capacity * sizeof(PacketSlot))));
  headers_.reset(checked<Packet>(std::malloc(capacity * sizeof(Packet))));
  free_.reserve(capacity);
  spare_pkts_.reserve(capacity);
  spare_slots_.reserve(capacity);
  mags_ = std::make_unique<Magazine[]>(kMaxThreadSlots);
  std::lock_guard<std::mutex> lk(registry_mu());
  live_pools().push_back(this);
}

// Buffers parked in magazines are just pointers into headers_; nothing to
// hand back on destruction beyond dropping out of the thread-exit flush
// registry.
PacketPool::~PacketPool() {
  std::lock_guard<std::mutex> lk(registry_mu());
  auto& pools = live_pools();
  for (auto it = pools.begin(); it != pools.end(); ++it) {
    if (*it == this) {
      pools.erase(it);
      break;
    }
  }
}

void PacketPool::flush_magazine(unsigned slot) {
  Magazine& m = mags_[slot];
  if (m.count == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  while (m.count > 0) free_.push_back(m.items[--m.count]);
}

PacketPool::Magazine* PacketPool::my_magazine() {
  const unsigned slot = thread_slot();
  if (slot >= kMaxThreadSlots) return nullptr;
  return &mags_[slot];
}

Packet* PacketPool::take_pair_locked() {
  if (!free_.empty()) {
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }
  if (carved_ == capacity_) return nullptr;
  const std::size_t i = capacity_ - 1 - carved_++;
  PacketSlot* ps = new (slots_.get() + i) PacketSlot;
  Packet* p = new (headers_.get() + i) Packet;
  p->pool_ = this;
  p->base_ = arena_ + i * kPacketCapacity;
  p->own_ps_ = ps;
  return p;
}

PacketPtr PacketPool::alloc() {
  Packet* p = nullptr;
  Magazine* m = my_magazine();
  if (m != nullptr && m->count > 0) {
    p = m->items[--m->count];
  } else {
    std::lock_guard<std::mutex> lk(mu_);
    p = take_pair_locked();
    if (p == nullptr && !spare_pkts_.empty() && !spare_slots_.empty()) {
      // Re-pair a parked header with a parked slot (divergent owner and
      // replica lifetimes can leave one of each stranded).
      p = spare_pkts_.back();
      spare_pkts_.pop_back();
      p->base_ = spare_slots_.back();
      spare_slots_.pop_back();
      p->own_ps_ = slot_state(p->base_);
    }
    if (p != nullptr && m != nullptr) {
      // Batch-refill while we hold the lock so the next half-magazine
      // of allocs on this thread stays lock-free.
      for (std::size_t k = 0; k < mag_cap_ / 2; ++k) {
        Packet* q = take_pair_locked();
        if (q == nullptr) break;
        m->items[m->count++] = q;
      }
    }
  }
  if (p == nullptr) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  p->own_ps_->refcnt.store(1, std::memory_order_relaxed);
  p->own_ps_->shared_from.store(kSlotUnshared, std::memory_order_relaxed);
  p->seg_base_ = nullptr;
  p->seg_ps_ = nullptr;
  p->seg_pool_ = nullptr;
  p->split_ = 0;
  p->len_ = 0;
  p->rx_time_ns = 0;
  p->ingress_port = 0;
  return PacketPtr(p);
}

PacketPtr PacketPool::clone(const Packet& src) {
  PacketPtr p = alloc();
  if (!p) return nullptr;
  src.copy_to({p->base_, src.len_});
  p->len_ = src.len_;
  p->rx_time_ns = src.rx_time_ns;
  p->ingress_port = src.ingress_port;
  return p;
}

PacketPtr PacketPool::replicate(const Packet& src, std::size_t split) {
  if (split >= src.len_) return clone(src);
  PacketPtr p = alloc();
  if (!p) return nullptr;
  // Resolve the attach target: replicas of replicas attach to the root
  // segment, never chain. A header-split source keeps its own split (its
  // private head may carry per-egress rewrites the replica should see);
  // an owner or pure-alias source takes the caller's split.
  PacketSlot* seg_ps;
  const std::uint8_t* seg_base;
  PacketPool* seg_pool;
  std::uint32_t eff;
  if (src.seg_base_ != nullptr) {
    seg_ps = src.seg_ps_;
    seg_base = src.seg_base_;
    seg_pool = src.seg_pool_;
    eff = src.split_ != 0 ? src.split_ : std::uint32_t(split);
  } else {
    seg_ps = src.own_ps_;
    seg_base = src.base_;
    seg_pool = src.pool_;
    eff = std::uint32_t(split);
  }
  if (eff > 0) {
    const std::uint8_t* head_src =
        (src.seg_base_ != nullptr && src.split_ == 0) ? src.seg_base_
                                                      : src.base_;
    std::memcpy(p->base_, head_src, eff);
  }
  if (seg_ps->refcnt.fetch_add(1, std::memory_order_relaxed) == 1)
    seg_pool->shared_segments_.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t cur = seg_ps->shared_from.load(std::memory_order_relaxed);
  while (eff < cur && !seg_ps->shared_from.compare_exchange_weak(
                          cur, eff, std::memory_order_relaxed)) {
  }
  p->seg_base_ = seg_base;
  p->seg_ps_ = seg_ps;
  p->seg_pool_ = seg_pool;
  p->split_ = eff;
  p->len_ = src.len_;
  p->rx_time_ns = src.rx_time_ns;
  p->ingress_port = src.ingress_port;
  replicas_zero_copy_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void PacketPool::detach_segment(Packet* p) {
  PacketSlot* ps = p->seg_ps_;
  PacketPool* sp = p->seg_pool_;
  const std::uint8_t* sb = p->seg_base_;
  p->seg_base_ = nullptr;
  p->seg_ps_ = nullptr;
  p->seg_pool_ = nullptr;
  p->split_ = 0;
  // acq_rel: release orders our final reads of the segment before the
  // decrement; the thread that observes the count hit zero acquires them
  // before recycling the slot for a new writer.
  const std::uint32_t prev = ps->refcnt.fetch_sub(1, std::memory_order_acq_rel);
  if (prev == 2) sp->shared_segments_.fetch_sub(1, std::memory_order_relaxed);
  if (prev == 1) sp->recycle_slot(const_cast<std::uint8_t*>(sb));
}

void PacketPool::recycle_slot(std::uint8_t* slot_base) {
  slot_state(slot_base)->shared_from.store(kSlotUnshared,
                                           std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (!spare_pkts_.empty()) {
    Packet* q = spare_pkts_.back();
    spare_pkts_.pop_back();
    q->base_ = slot_base;
    q->own_ps_ = slot_state(slot_base);
    free_.push_back(q);
  } else {
    spare_slots_.push_back(slot_base);
  }
}

void PacketPool::owner_copy_out(Packet& p) {
  std::uint8_t* ns = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!spare_slots_.empty()) {
      ns = spare_slots_.back();
      spare_slots_.pop_back();
    } else if (Packet* q = take_pair_locked()) {
      // Break a free (or freshly carved) pair: take its slot, park the
      // header.
      ns = q->base_;
      q->base_ = nullptr;
      q->own_ps_ = nullptr;
      spare_pkts_.push_back(q);
    }
  }
  if (ns == nullptr) {
    // The global list may be empty while this thread's magazine holds
    // free pairs; break one of those instead.
    Magazine* m = my_magazine();
    if (m != nullptr && m->count > 0) {
      Packet* q = m->items[--m->count];
      ns = q->base_;
      q->base_ = nullptr;
      q->own_ps_ = nullptr;
      std::lock_guard<std::mutex> lk(mu_);
      spare_pkts_.push_back(q);
    }
  }
  if (ns == nullptr) {
    // Exhausted: write in place. Replicas may observe the write; the
    // counter lets operators size pools so this never fires.
    cow_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::memcpy(ns, p.base_, p.len_);
  PacketSlot* nps = slot_state(ns);
  nps->refcnt.store(1, std::memory_order_relaxed);
  nps->shared_from.store(kSlotUnshared, std::memory_order_relaxed);
  std::uint8_t* ob = p.base_;
  PacketSlot* ops = p.own_ps_;
  p.base_ = ns;
  p.own_ps_ = nps;
  const std::uint32_t prev =
      ops->refcnt.fetch_sub(1, std::memory_order_acq_rel);
  if (prev == 2) shared_segments_.fetch_sub(1, std::memory_order_relaxed);
  if (prev == 1) recycle_slot(ob);  // every replica died mid-write
  cow_promotions_.fetch_add(1, std::memory_order_relaxed);
}

void PacketPool::promote(Packet& p) {
  if (p.len_ > p.split_)
    std::memcpy(p.base_ + p.split_, p.seg_base_ + p.split_,
                p.len_ - p.split_);
  detach_segment(&p);
  cow_promotions_.fetch_add(1, std::memory_order_relaxed);
}

void PacketPool::release(Packet* p) {
  if (p->seg_ps_ != nullptr) detach_segment(p);
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  const std::uint32_t prev =
      p->own_ps_->refcnt.fetch_sub(1, std::memory_order_acq_rel);
  if (prev == 2) shared_segments_.fetch_sub(1, std::memory_order_relaxed);
  if (prev != 1) {
    // Replicas still read this slot: park the header until the last one
    // detaches and recycle_slot() re-pairs it. If a spare slot is already
    // waiting (a concurrent detach beat us here), re-pair immediately.
    std::lock_guard<std::mutex> lk(mu_);
    if (!spare_slots_.empty()) {
      p->base_ = spare_slots_.back();
      spare_slots_.pop_back();
      p->own_ps_ = slot_state(p->base_);
      free_.push_back(p);
    } else {
      p->base_ = nullptr;
      p->own_ps_ = nullptr;
      spare_pkts_.push_back(p);
    }
    return;
  }
  Magazine* m = my_magazine();
  if (m != nullptr) {
    if (m->count >= mag_cap_) {
      // Full: flush half (at least one) to the global list so buffers
      // keep circulating to other threads instead of accumulating here.
      const std::size_t flush = mag_cap_ - mag_cap_ / 2;
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t k = 0; k < flush; ++k)
        free_.push_back(m->items[--m->count]);
    }
    m->items[m->count++] = p;
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  free_.push_back(p);
}

PacketPool& PacketPool::default_pool() {
  static PacketPool pool(16384);
  return pool;
}

}  // namespace rb
