// The basic design, paper section 4.2: a byte-granular emulation of the
// shared-memory ring of Figure 3 using RDMA writes.
//
// A matching put/get pair costs three RDMA writes: one for the data, one to
// update the remote head-pointer replica, and one to update the remote
// tail-pointer replica.  The sender conservatively waits for the data
// write's completion before publishing the new head (interpretation
// decision recorded in DESIGN.md: it explains the paper's 18.6 us basic
// latency, ~2x the single-write piggyback design plus overheads), and
// copies the *entire* accepted region before posting any RDMA write --
// the copy/transfer serialization the pipelining optimization later removes.
#pragma once

#include "rdmach/verbs_base.hpp"

namespace rdmach {

class BasicChannel : public VerbsChannelBase {
 public:
  BasicChannel(pmi::Context& ctx, const ChannelConfig& cfg)
      : VerbsChannelBase(ctx, cfg) {}

  sim::Task<std::size_t> put(Connection& conn,
                             std::span<const ConstIov> iovs) override;
  sim::Task<std::size_t> get(Connection& conn,
                             std::span<const Iov> iovs) override;
  /// Quiet: the head replica has not moved past the tail.  With integrity
  /// on, reading the head means verifying the stream, so never quiet.
  bool rx_quiet(Connection& conn) override {
    auto& c = static_cast<VerbsConnection&>(conn);
    return rx_quiet_if(c, [&] {
      return !cfg_.integrity_check && c.ctrl.head_replica == c.ctrl.tail_master;
    });
  }

 protected:
  std::unique_ptr<VerbsConnection> make_connection() override {
    return std::make_unique<VerbsConnection>();
  }

  /// Byte-granular journal: the consumed watermark is the tail master.
  std::uint64_t journal_consumed(const VerbsConnection& c) const override;
  /// Rewrites ring bytes [peer_consumed, head_master) from staging and
  /// refreshes the remote head replica; resyncs the local tail replica
  /// forward to the watermark the peer published.
  sim::Task<void> replay(VerbsConnection& c,
                         const pmi::RecoveryRecord& peer) override;

 private:
  /// Integrity path of get(): extends the verified incoming prefix by
  /// checking new ring bytes [verified_head, head_replica) against the
  /// sender's rolling stream CRC; on mismatch flags the NACK and leaves
  /// the readable head where it was.
  std::uint64_t verify_incoming(VerbsConnection& c);
};

}  // namespace rdmach
