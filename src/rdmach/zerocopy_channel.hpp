// Zero-copy design, paper section 5.
//
// Small messages travel through the ring exactly as in the pipelining
// design.  A buffer of at least `zero_copy_threshold` bytes bypasses the
// ring: the sender registers it (through the registration cache), writes a
// special RTS slot carrying {address, size, rkey} into the pipe, and
// returns 0 from put until the transfer completes.  When the receiver's
// get reaches the RTS slot it registers its own destination buffer and
// issues an RDMA read that pulls the data straight into the user buffer;
// while the read is in flight get returns 0.  Once the read finishes, the
// next get sends an acknowledgement slot back and returns the byte count;
// the ack lets the sender release ("deregister" into the cache) its buffer
// and report completion from the next put -- the exact handshake of
// Figure 10.
//
// RDMA read (receiver pulls) was chosen over RDMA write (sender pushes)
// because in MPICH2 get is always called after put for large messages
// (section 5); the CH3-level design in src/ch3 is the write-based
// alternative for comparison.
#pragma once

#include "rdmach/piggyback_channel.hpp"
#include "rdmach/reg_cache.hpp"

namespace rdmach {

/// RTS slot payload.
struct RtsPayload {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
  std::uint64_t rkey = 0;
  /// CRC32C of the whole advertised buffer (integrity_check only; the RTS
  /// slot itself is covered by the slot CRC).  Widened to 64 bits to keep
  /// the struct trivially packed.
  std::uint64_t crc = 0;
};

class ZeroCopyChannel : public PipelineChannel {
 public:
  ZeroCopyChannel(pmi::Context& ctx, const ChannelConfig& cfg)
      : PipelineChannel(ctx, cfg) {}

  sim::Task<void> init() override;
  sim::Task<void> finalize() override;
  sim::Task<std::size_t> put(Connection& conn,
                             std::span<const ConstIov> iovs) override;
  sim::Task<std::size_t> get(Connection& conn,
                             std::span<const Iov> iovs) override;
  /// Quiet: no inbound rendezvous, no ack owed, no complete slot.
  bool rx_quiet(Connection& conn) override {
    auto& c = static_cast<SlotConnection&>(conn);
    return rx_quiet_if(c, [&] {
      return !c.r_rndv_active && !c.ack_pending && peek_slot(c) == nullptr;
    });
  }

  RegCache& reg_cache() noexcept { return *cache_; }

 protected:
  /// Piggyback slot replay, plus: an RDMA read interrupted mid-rendezvous
  /// has its destination registration invalidated (not trusted across the
  /// teardown), re-acquired, and the read re-posted on the fresh QP at the
  /// same offset.
  sim::Task<void> replay(VerbsConnection& c,
                         const pmi::RecoveryRecord& peer) override;

  /// Rendezvous state (pinned source buffer, in-flight RDMA read, deferred
  /// ack) lives outside the slot journal, so a connection mid-rendezvous
  /// must not be torn down.
  bool lazy_evictable(const VerbsConnection& conn) const override {
    const auto& c = static_cast<const SlotConnection&>(conn);
    return !c.rndv_active && !c.r_rndv_active && !c.ack_pending &&
           !c.r_read_inflight;
  }

 private:
  /// Consumes leading ack slots (sender-side progress made from put).
  void harvest_acks(SlotConnection& c);
  /// Sends the rendezvous-complete ack if a slot is free.
  void try_send_ack(SlotConnection& c);
  /// Issues the next RDMA read of an active inbound rendezvous into the
  /// caller's buffers starting at `offset`; no-op if nothing to read or no
  /// buffer space.
  sim::Task<void> issue_read(SlotConnection& c, std::span<const Iov> iovs,
                             std::size_t offset);

  std::unique_ptr<RegCache> cache_;
};

}  // namespace rdmach
