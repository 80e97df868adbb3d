// Simulated process-management interface.
//
// Real MPICH2 jobs bootstrap through a process manager (mpd) and its PMI
// key-value space: every rank publishes its QP numbers / buffer addresses /
// rkeys, synchronizes, and reads its peers' entries.  This module provides
// the same three primitives -- put, barrier-then-get, and a launcher that
// starts one process per node -- against the simulated cluster.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ib/fabric.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace pmi {

/// Outcome of Kvs::wait: the awaited record appeared, the peer's dead
/// marker appeared first, or the deadline passed with neither.
enum class WaitOutcome { kPublished, kPeerDead, kDeadline };

/// One side's endpoint for a connection: what its peer needs to address
/// the receive ring and control block and to connect the QPs.  Eager
/// bootstrap posts generation 0; lazy connect posts one card per
/// generation.  The adaptive design's extras (FIN landing zone, read
/// pipeline QPs) ride on the same card once `extras` is set.
struct EndpointCard {
  std::uint32_t qpn = 0;
  std::uint64_t ring_addr = 0;
  std::uint32_t ring_rkey = 0;
  std::uint64_t ctrl_addr = 0;
  std::uint32_t ctrl_rkey = 0;
  bool extras = false;
  std::uint64_t fin_addr = 0;
  std::uint32_t fin_rkey = 0;
  std::vector<std::uint32_t> aux_qpns;
};

/// One side's half of a recovery re-handshake: the replacement QP, how much
/// of the peer's stream it had consumed (the peer's replay start), and the
/// peer's write-rendezvous tokens whose open round it still awaits a FIN
/// for (adaptive design) -- the only rounds the peer may re-write.
struct RecoveryRecord {
  std::uint32_t qpn = 0;
  std::uint64_t consumed = 0;
  std::vector<std::uint64_t> open_rounds;
};

/// A lazy-connect control message.  `consumed` is meaningful for kEvict
/// only (the initiator's consumed mark of the receiver's stream).
struct LazyMail {
  enum class Op : std::uint8_t { kConnect, kEvict, kAck, kNack };
  Op op = Op::kConnect;
  int from = 0;
  std::uint64_t gen = 0;
  std::uint64_t consumed = 0;
};

/// Job-wide key-value space.  get() blocks until the key has been
/// published, so `put(...); co_await get(peer_key)` is a safe exchange
/// without an explicit barrier.
///
/// Besides the string keys (one-time setup exchanges and the process-fault
/// protocol), the channel control plane has typed boards: endpoint cards,
/// recovery records, per-pair dead markers and lazy-connect mailboxes.
/// They share the string entries' publish trigger, so any waiter wakes on
/// any publication, but they are not string entries: size() counts only
/// the latter.
class Kvs {
 public:
  /// Kvs::wait deadline meaning "no deadline".
  static constexpr sim::Tick kNoDeadline = 0;

  explicit Kvs(sim::Simulator& sim) : published_(sim) {}

  void put(const std::string& key, std::string value) {
    entries_[key] = std::move(value);
    published_.fire();
  }

  /// Convenience for numeric values (addresses, rkeys, QP numbers).
  void put_u64(const std::string& key, std::uint64_t v) {
    put(key, std::to_string(v));
  }

  sim::Task<std::string> get(std::string key) {
    co_await sim::wait_until(published_,
                             [this, &key] { return entries_.count(key) > 0; });
    co_return entries_.at(key);
  }

  sim::Task<std::uint64_t> get_u64(std::string key) {
    std::string v = co_await get(std::move(key));
    co_return std::stoull(v);
  }

  /// Blocks until `published()` holds (kPublished), else until `dead()`
  /// holds (kPeerDead), else until virtual time reaches `deadline`
  /// (kDeadline; kNoDeadline waits without one).  Both predicates are
  /// re-tested on every publication.  A bounded wait schedules exactly one
  /// wakeup, at `deadline`, which must be in the future.
  template <class Published, class Dead>
  sim::Task<WaitOutcome> wait(Published published, Dead dead,
                              sim::Tick deadline = kNoDeadline) {
    sim::Simulator& sim = published_.simulator();
    // The trigger only re-evaluates predicates when fired; fire it at the
    // deadline so the time clause below is actually observed.
    if (deadline != kNoDeadline) {
      sim.call_at(deadline, [this] { published_.fire(); });
    }
    co_await sim::wait_until(published_, [&] {
      return published() || dead() ||
             (deadline != kNoDeadline && sim.now() >= deadline);
    });
    if (published()) co_return WaitOutcome::kPublished;
    co_return dead() ? WaitOutcome::kPeerDead : WaitOutcome::kDeadline;
  }

  /// Non-blocking probe (PMI_KVS_Get with an immediate-failure return).
  bool has(const std::string& key) const { return entries_.count(key) > 0; }

  /// Non-blocking lookup: the value if published, nullptr otherwise.
  const std::string* find(const std::string& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Append-only mailbox: values accumulate per key in publish order and
  /// are never overwritten; mail_count is a cheap monotone version for
  /// consumers that only need "did it move".  Fires the same trigger as
  /// put().
  void append(const std::string& key, std::string value) {
    mailboxes_[key].push_back(std::move(value));
    published_.fire();
  }

  std::size_t mail_count(const std::string& key) const {
    auto it = mailboxes_.find(key);
    return it == mailboxes_.end() ? 0 : it->second.size();
  }

  /// String entries only (the typed boards are not counted).
  std::size_t size() const noexcept { return entries_.size(); }

  // ---- endpoint cards -------------------------------------------------------
  /// Publishes `from`'s endpoint toward `to` for generation `gen`.  A
  /// re-post of the same coordinate replaces the card (eager adaptive
  /// bootstrap adds its extras in a second step).
  void post_card(int from, int to, std::uint64_t gen, EndpointCard card) {
    cards_[PairKey{from, to, gen}] = std::move(card);
    published_.fire();
  }

  const EndpointCard* find_card(int from, int to, std::uint64_t gen) const {
    auto it = cards_.find(PairKey{from, to, gen});
    return it == cards_.end() ? nullptr : &it->second;
  }

  /// Blocks until the card is published (with its extras, if asked).  The
  /// pointer stays valid for the Kvs's lifetime.
  sim::Task<const EndpointCard*> get_card(int from, int to, std::uint64_t gen,
                                          bool with_extras = false) {
    const EndpointCard* card = nullptr;
    co_await sim::wait_until(published_, [&] {
      card = find_card(from, to, gen);
      return card != nullptr && (!with_extras || card->extras);
    });
    co_return card;
  }

  // ---- recovery records -----------------------------------------------------
  void post_recovery(int from, int to, std::uint64_t epoch,
                     RecoveryRecord rec) {
    recoveries_[PairKey{from, to, epoch}] = rec;
    published_.fire();
  }

  const RecoveryRecord* find_recovery(int from, int to,
                                      std::uint64_t epoch) const {
    if (recoveries_.empty()) return nullptr;
    auto it = recoveries_.find(PairKey{from, to, epoch});
    return it == recoveries_.end() ? nullptr : &it->second;
  }

  /// Kvs::wait for `from`'s recovery record toward `to` at `epoch`, released
  /// early by `from`'s dead marker for the pair.
  sim::Task<WaitOutcome> wait_recovery(int from, int to, std::uint64_t epoch,
                                       sim::Tick deadline = kNoDeadline) {
    return wait([this, from, to, epoch] {
                  return find_recovery(from, to, epoch) != nullptr;
                },
                [this, from, to] { return pair_dead(from, to); }, deadline);
  }

  // ---- per-pair dead markers ------------------------------------------------
  /// `from` gave up on its connection to `to` (retry budget, watchdog,
  /// lazy-connect budget).  Directional: only `to` reads it, to be released
  /// from its half of a handshake.  Separate from the obituary board, which
  /// convicts a whole rank for everyone.
  void post_dead(int from, int to) {
    dead_pairs_.insert({from, to});
    published_.fire();
  }

  bool pair_dead(int from, int to) const {
    return !dead_pairs_.empty() && dead_pairs_.count({from, to}) > 0;
  }

  // ---- lazy-connect mailboxes -----------------------------------------------
  /// Appends `mail` to `to`'s mailbox.  Consumers keep a cursor and process
  /// in FIFO order, so an evict-ack for generation g is always handled
  /// before the connect request that opens generation g+1.
  void post_mail(int to, LazyMail mail) {
    lazy_mail_[to].push_back(mail);
    published_.fire();
  }

  /// `rank`'s mailbox (possibly empty).  The reference stays valid across
  /// further post_mail() calls.
  const std::vector<LazyMail>& mailbox(int rank) { return lazy_mail_[rank]; }

  // ---- obituary board -------------------------------------------------------
  /// A rank that convicts a peer as permanently dead posts an obituary
  /// here; every other rank consults the board before burning its own
  /// retry budget against the corpse.  post_obit is idempotent (the first
  /// conviction wins) and mirrors the obituary into the string entries as
  /// "ft:dead:<rank>" so key-based waiters can use it as an abort
  /// condition.  obit_version() is a cheap monotonic cursor: consumers
  /// cache it and rescan the board only when it moves.
  bool post_obit(int rank) {
    if (!dead_ranks_.insert(rank).second) return false;
    obit_list_.push_back(rank);
    put("ft:dead:" + std::to_string(rank), "1");
    return true;
  }

  bool is_dead(int rank) const { return dead_ranks_.count(rank) > 0; }

  /// Ranks obituaried so far, in conviction order.  Stable reference.
  const std::vector<int>& obits() const noexcept { return obit_list_; }

  std::uint64_t obit_version() const noexcept { return obit_list_.size(); }

 private:
  /// Coordinate on a typed board: the publishing rank, the rank it
  /// addresses, and the recovery epoch or lazy-connect generation scoping
  /// the entry, so every re-handshake is a fresh write-once exchange.
  struct PairKey {
    int from = 0;
    int to = 0;
    std::uint64_t seq = 0;
    auto operator<=>(const PairKey&) const = default;
  };

  std::map<std::string, std::string> entries_;
  std::map<std::string, std::vector<std::string>> mailboxes_;
  std::map<PairKey, EndpointCard> cards_;
  std::map<PairKey, RecoveryRecord> recoveries_;
  std::set<std::pair<int, int>> dead_pairs_;
  std::map<int, std::vector<LazyMail>> lazy_mail_;
  std::set<int> dead_ranks_;
  std::vector<int> obit_list_;
  sim::Trigger published_;
};

/// Job-wide barrier (PMI_Barrier): generation-counted so it is reusable.
class Barrier {
 public:
  Barrier(sim::Simulator& sim, int participants)
      : released_(sim), participants_(participants) {}

  sim::Task<void> arrive() {
    const std::uint64_t token = arrive_split();
    co_await sim::wait_until(released_,
                             [this, token] { return done(token); });
  }

  /// Split-phase arrival: registers this rank now and returns a token for
  /// done().  Lets a rank keep servicing out-of-band work (e.g. connection
  /// recovery handshakes during channel finalize) while slower ranks catch
  /// up, instead of going deaf inside a blocking arrive().
  std::uint64_t arrive_split() {
    const std::uint64_t my_gen = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      released_.fire();
    }
    return my_gen;
  }

  bool done(std::uint64_t token) const noexcept { return generation_ > token; }

  /// Removes a permanently dead rank from the participant set: a corpse can
  /// never arrive, so leaving it counted wedges every subsequent job-wide
  /// barrier (finalize).  Idempotent per rank -- any number of survivors may
  /// report the same obituary.  If the remaining participants have all
  /// already arrived, the barrier releases immediately.
  void abandon(int rank) {
    if (!abandoned_.insert(rank).second) return;
    --participants_;
    if (participants_ > 0 && arrived_ >= participants_) {
      arrived_ = 0;
      ++generation_;
      released_.fire();
    }
  }

 private:
  sim::Trigger released_;
  int participants_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::set<int> abandoned_;
};

/// Per-rank execution context handed to every rank program.
struct Context {
  int rank = 0;
  int size = 0;
  /// Job layout: consecutive ranks per node, so peer rank r lives on fabric
  /// node r / ranks_per_node (lazy connects wake that node's progress loop
  /// without a QP in hand).
  int ranks_per_node = 1;
  ib::Node* node = nullptr;
  Kvs* kvs = nullptr;
  Barrier* barrier = nullptr;

  sim::Simulator& sim() const { return node->fabric().sim(); }
  ib::Fabric& fabric() const { return node->fabric(); }
};

/// Fires every fabric node's DMA-arrival trigger one wire latency from now.
/// Progress loops park on those triggers (not on the KVS), so a control-plane
/// event that must interrupt blocked ranks everywhere -- an obituary posting,
/// a communicator revocation -- follows its KVS write with this broadcast
/// wake-up.  Idempotent and cheap: woken ranks that find nothing to do just
/// park again.
inline void wake_all_ranks(Context& ctx) {
  sim::Simulator& sim = ctx.sim();
  ib::Fabric& fabric = ctx.fabric();
  const sim::Tick at = sim.now() + fabric.cfg().wire_latency;
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    ib::Node* n = &fabric.node(i);
    sim.call_at(at, [n] { n->dma_arrival().fire(); });
  }
}

/// Launches an `n`-rank job on the fabric: adds one node per rank (if the
/// fabric does not already have enough), builds the contexts, and spawns
/// `main` once per rank.  Call sim.run() afterwards.
class Job {
 public:
  using RankMain = std::function<sim::Task<void>(Context&)>;

  /// `ranks_per_node` > 1 co-locates consecutive ranks on one node (SMP
  /// cluster), which the multi-method channel exploits: shared memory
  /// within a node, InfiniBand across nodes.
  explicit Job(ib::Fabric& fabric, int n, int ranks_per_node = 1);

  /// Spawns `main(ctx)` for every rank.  The callable is kept alive for the
  /// job's lifetime: if it is a coroutine lambda, its closure must outlive
  /// the spawned coroutines.
  void launch(RankMain main);

  Context& context(int rank) { return contexts_.at(static_cast<std::size_t>(rank)); }
  Kvs& kvs() noexcept { return kvs_; }
  int size() const noexcept { return n_; }

 private:
  ib::Fabric* fabric_;
  int n_;
  Kvs kvs_;
  Barrier barrier_;
  std::vector<Context> contexts_;
  // Keeps coroutine-lambda closures alive; deque: stable addresses across
  // repeated launches.
  std::deque<RankMain> mains_;
};

}  // namespace pmi
