// The multi-method channel of Figure 1: per-connection method selection --
// literally shared memory for peers on the same node, the zero-copy
// RDMA design for peers across the fabric.  MPICH2's implementation
// structure shows exactly this box ("Multi-Method Channel" combining
// SHMEM and network channels under CH3).
#pragma once

#include "rdmach/channel.hpp"
#include "sim/sync.hpp"

namespace rdmach {

class MultiMethodChannel : public Channel {
 public:
  MultiMethodChannel(pmi::Context& ctx, const ChannelConfig& cfg);
  ~MultiMethodChannel() override;

  sim::Task<void> init() override;
  sim::Task<void> finalize() override;
  Connection& connection(int peer) override;
  sim::Task<std::size_t> put(Connection& conn,
                             std::span<const ConstIov> iovs) override;
  sim::Task<std::size_t> get(Connection& conn,
                             std::span<const Iov> iovs) override;
  sim::Task<void> wait_for_activity() override;
  std::uint64_t activity_count() const override;

  /// True when `peer` shares this rank's node (served by shared memory).
  bool is_local(int peer) const;

  /// The member channels (null before init); tests reach through them
  /// for per-member statistics.
  Channel* shm() const noexcept { return shm_.get(); }
  Channel* net() const noexcept { return net_.get(); }

  /// The facade's own counters merged with both members'.  One-sided RMA
  /// is noted on the channel object the engine exposes -- this one -- so
  /// the rma_* counts live here, not in any member.
  ChannelStats stats() const override {
    ChannelStats s = Channel::stats();
    for (const Channel* m : {shm_.get(), net_.get()}) {
      if (m != nullptr) s.merge(m->stats());
    }
    return s;
  }

  /// stats() folds in the members' counters, so a reset must reach them.
  void reset_stats() override {
    Channel::reset_stats();
    if (shm_) shm_->reset_stats();
    if (net_) net_->reset_stats();
  }

 private:
  struct Routed : Connection {
    Channel* via = nullptr;
    Connection* inner = nullptr;
  };

  std::unique_ptr<Channel> shm_;
  std::unique_ptr<Channel> net_;
  std::vector<std::unique_ptr<Routed>> conns_;
  std::unique_ptr<sim::Trigger> activity_;
};

}  // namespace rdmach
