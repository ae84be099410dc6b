#pragma once

// Event envelope and per-PE slab pool.
//
// Envelopes are fixed-size: a key, engine bookkeeping, the model's control
// bitfield (tw_bf analogue), the child list used for anti-message
// cancellation, and a POD payload buffer the model reinterprets as its
// message struct (the ROSS Msg_Data idiom). Envelopes move between PEs by
// pointer; ownership transfers on enqueue and the receiving PE eventually
// frees them into its own pool.
//
// The hot layout is deliberately lean: the cold state-saving / lazy-
// cancellation members (LP snapshot, payload snapshot, saved RNG cursor,
// stale child list) live behind a single optional side-block (`EventCold`)
// allocated only when one of those modes actually touches the envelope, so
// the common-case envelope spans fewer cache lines and slab storage stays
// dense.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "des/lp_state.hpp"
#include "des/time.hpp"
#include "util/macros.hpp"
#include "util/mpsc_queue.hpp"
#include "util/small_vec.hpp"

namespace hp::des {

inline constexpr std::size_t kMaxPayload = 96;

// Envelopes per pool slab. Slabs are the pool's only allocation unit: one
// array-new per 1024 envelopes instead of one heap round trip per envelope.
inline constexpr std::size_t kSlabEnvelopes = 1024;

// Time Warp envelope lifecycle (the other kernels skip InFlight): Free (on
// a pool free list) -> InFlight (minted by a send or the initial schedule,
// not yet in its owner's pending set; chaos-held envelopes stay here) ->
// Pending <-> Processed -> Free.
enum class EventStatus : std::uint8_t { Free, InFlight, Pending, Processed };

struct Event;

// Reference to a child event for cancellation: a direct pointer to the
// child's envelope plus its identity (uid), which the canceller checks
// against the envelope before acting. Pointer and uid — not the ordering
// key — pick the victim: after a rollback, a re-executed parent may send a
// *different* child that legitimately reuses the old child's ordering key
// (same parent tie, same send index), and the dying lineage coexists with
// the new one until the cancellation chain catches up.
//
// The pointer is safe because a child envelope is freed only by its
// parent's cancellation, or by fossil collection after the parent has
// committed (and freed its child list), so a ChildRef never outlives its
// envelope. Only the PE that currently owns the child dereferences `ev`:
// local cancellation does so directly; remote cancellation ships the
// pointer inside an anti token, which the owner acts on after FIFO delivery
// (the positive is always consumed first).
struct ChildRef {
  // Routes the cancellation (key.dst_lp); an anti token's copy bounds GVT
  // while it is in flight.
  EventKey key;
  std::uint64_t uid;
  // Hash of (payload bytes, size): lazy cancellation may only reuse a stale
  // child when both the derived key AND the content match, otherwise
  // determinism would break (same key can carry different payloads after a
  // changed decision upstream).
  std::uint64_t payload_hash;
  Event* ev;
};
static_assert(std::is_trivially_copyable_v<ChildRef>);

// Cold per-envelope state, allocated on demand (Event::cold()):
//   * stale_children — lazy cancellation keeps the children of the last
//     rolled-back execution alive until re-execution reuses or cancels them;
//   * snapshot / payload_snapshot / saved_rng_* — the state-saving ablation
//     mode's pre-execution snapshots (forward handlers mutate their own
//     message under the ROSS save-into-the-message idiom, so re-execution
//     must start from the original bytes).
// Aggressive-cancellation reverse-computation runs (the default) never
// allocate one, so the hot envelope stays small.
struct EventCold {
  std::vector<ChildRef> stale_children;
  std::unique_ptr<LpState> snapshot;
  std::unique_ptr<std::byte[]> payload_snapshot;
  std::uint64_t saved_rng_state = 0;
  std::uint64_t saved_rng_draws = 0;
};

// The envelope doubles as the intrusive node of the lock-free remote inbox
// (util::MpscQueue); mpsc_next is live only while the envelope is in flight
// between PEs — or threaded on its pool's free list while the envelope is
// Free (the two states are disjoint, so the link is safely shared).
// Anti-messages travel as envelopes too (is_anti set, `victim` points at the
// positive to annihilate and key/uid identify it, payload unused) so
// positives and antis share one FIFO channel and one pool.
struct Event : util::MpscNode {
  EventKey key;
  std::uint64_t uid = 0;  // unique send instance id (anti-message identity)
  // Anti tokens only: the envelope to annihilate (ChildRef::ev of the
  // cancelled child). Null on positives, and on chaos duplicate antis, which
  // must resolve as stale without touching the long-dead victim.
  Event* victim = nullptr;
  std::uint64_t rng_before = 0;   // LP stream position before execution
  Time send_ts = 0.0;
  std::uint32_t kp = 0;  // destination KP, cached at send time
  EventStatus status = EventStatus::Free;
  bool is_anti = false;  // anti token: victim/uid name the event to kill
  std::uint16_t payload_size = 0;
  std::uint32_t cv = 0;  // model control bits, reset before each forward
  // Rollback forensics (see obs/forensics.hpp). `cascade` rides on anti
  // tokens: the cascade chain length of the rollback episode that sent the
  // anti, so the induced rollback can extend the chain. `send_wall_ns` is
  // the wall-clock stamp of the remote send, set only when tracing AND
  // forensics are on (it pairs the trace.json flow event); 0 otherwise.
  std::uint32_t cascade = 0;
  std::uint64_t send_wall_ns = 0;
  // Latency telemetry stamps (ObsConfig::telemetry; 0 when off, so a
  // telemetry-off run never reads the clock for them): wall-clock ns at
  // event creation (queue-dwell start) and at forward execution
  // (commit-latency start, recorded against at fossil collection).
  std::uint64_t create_wall_ns = 0;
  std::uint64_t exec_wall_ns = 0;
  util::SmallVec<ChildRef, 4> children;
  // Optional cold side-block; null unless lazy cancellation or state saving
  // touched this envelope. Reset on free.
  std::unique_ptr<EventCold> cold_block;

  // Lazily allocated cold state (see EventCold).
  EventCold& cold() {
    if (HP_UNLIKELY(cold_block == nullptr)) {
      cold_block = std::make_unique<EventCold>();
    }
    return *cold_block;
  }
  bool has_stale_children() const noexcept {
    return cold_block != nullptr && !cold_block->stale_children.empty();
  }

  alignas(8) std::byte payload[kMaxPayload];

  template <typename M>
  M& msg() noexcept {
    static_assert(std::is_trivially_copyable_v<M> && sizeof(M) <= kMaxPayload);
    return *std::launder(reinterpret_cast<M*>(payload));
  }
  template <typename M>
  const M& msg() const noexcept {
    static_assert(std::is_trivially_copyable_v<M> && sizeof(M) <= kMaxPayload);
    return *std::launder(reinterpret_cast<const M*>(payload));
  }
};

// Slab recycler. Not thread-safe by design: one pool per PE, and cross-PE
// envelopes are freed into the *receiving* PE's pool (the free list holds
// non-owning pointers threaded through the envelopes' own mpsc_next links;
// storage is owned by the allocating pool's slabs, and the engine destroys
// all pools together after the PE threads have joined — a pool's free list
// may point into a sibling's slabs, which is safe because destruction never
// follows the list).
//
// Capacity vs. live: `capacity()` is the high-water storage owned by this
// pool (whole slabs; it never shrinks) and `live()` is the current
// outstanding-envelope count (allocated minus freed *here*) — the number
// fossil collection actually drives back down. live() is signed because
// envelopes cross PEs: a PE that mostly receives remote events frees more
// envelopes into its pool than it allocated from it, so its live() goes
// negative while the sender's stays positive — only the sum (or a
// single-pool engine) is a memory figure. The optimism
// flow-control watermarks compare a PE's own live() against its budget,
// which is exactly the "am I the one over-allocating" question.
class EventPool {
 public:
  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  Event* allocate() {
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    Event* ev = free_head_;
    if (HP_UNLIKELY(ev == nullptr)) ev = grow();
    free_head_ =
        static_cast<Event*>(ev->mpsc_next.load(std::memory_order_relaxed));
    ev->mpsc_next.store(nullptr, std::memory_order_relaxed);
    --free_count_;
    return ev;
  }

  // Scrub the envelope back to a fresh-from-slab state and push it on the
  // free list. Every engine-written field is cleared so a recycled envelope
  // is indistinguishable from a new one — a stale send_wall_ns would
  // fabricate a forensics flow event, a stale victim/send_ts/cv would leak
  // one event's causality into an unrelated reuse. Debug builds poison
  // the payload (fresh slabs poison it too) so reads-before-writes surface.
  void free(Event* ev) noexcept {
    --live_;
    ++free_count_;
    ev->key = EventKey{};
    ev->uid = 0;
    ev->victim = nullptr;
    ev->rng_before = 0;
    ev->send_ts = 0.0;
    ev->kp = 0;
    ev->status = EventStatus::Free;
    ev->is_anti = false;
    ev->payload_size = 0;
    ev->cv = 0;
    ev->cascade = 0;
    ev->send_wall_ns = 0;
    // create_wall_ns / exec_wall_ns are deliberately NOT scrubbed: telemetry
    // reads them only in telemetry-on runs, where every read site follows a
    // same-lifecycle write (the creation hooks stamp create_wall_ns, the
    // execution path stamps exec_wall_ns before any commit-latency read), and
    // telemetry-off runs neither write nor read them — so the scrub would be
    // two dead stores on the hottest pool primitive.
    ev->children.clear();
    ev->cold_block.reset();
#ifndef NDEBUG
    std::memset(ev->payload, kPoisonByte, kMaxPayload);
#endif
    ev->mpsc_next.store(free_head_, std::memory_order_relaxed);
    free_head_ = ev;
  }

  // Envelopes backed by this pool's slabs (high-water mark, slab-granular).
  std::size_t capacity() const noexcept {
    return slabs_.size() * kSlabEnvelopes;
  }
  // Historical name for capacity(); kept for existing callers.
  std::size_t allocated() const noexcept { return capacity(); }
  std::size_t free_count() const noexcept { return free_count_; }
  // Slab-level storage accounting (obs counters slabs_allocated/pool_bytes).
  std::size_t slabs_allocated() const noexcept { return slabs_.size(); }
  std::size_t pool_bytes() const noexcept {
    return slabs_.size() * kSlabEnvelopes * sizeof(Event);
  }

  // Outstanding allocations netted against frees into this pool (signed —
  // see the class comment).
  std::int64_t live() const noexcept { return live_; }
  // High-water of live(); never negative because it only ratchets up from 0
  // inside allocate().
  std::int64_t peak_live() const noexcept { return peak_live_; }

 private:
  static constexpr int kPoisonByte = 0xA5;

  // One array-new per kSlabEnvelopes envelopes; every envelope of the new
  // slab goes straight onto the intrusive free list, last-to-first so
  // allocation hands them out in address order (dense early working set).
  Event* grow() {
    slabs_.push_back(std::make_unique<Event[]>(kSlabEnvelopes));
    Event* slab = slabs_.back().get();
    for (std::size_t i = kSlabEnvelopes; i-- > 0;) {
#ifndef NDEBUG
      std::memset(slab[i].payload, kPoisonByte, kMaxPayload);
#endif
      slab[i].mpsc_next.store(free_head_, std::memory_order_relaxed);
      free_head_ = &slab[i];
    }
    free_count_ += kSlabEnvelopes;
    return free_head_;
  }

  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_head_ = nullptr;
  std::size_t free_count_ = 0;
  std::int64_t live_ = 0;
  std::int64_t peak_live_ = 0;
};

}  // namespace hp::des
