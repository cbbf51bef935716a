#include "core/lgg_protocol.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/profiler.hpp"
#include "obs/registry.hpp"

namespace lgg::core {

namespace {

// Sort keys.  The filter scan turns each active downhill link of the node
// being selected into one key that packs the far end's declared queue
// above the link's rank, its position in the node's list.  Ranks are
// unique per node, so keys are unique and ascending key order is the
// contract's (declared, rank) order: any correct sort reproduces it.

/// The narrow key: declared << 32 | rank.  It holds every kept link of a
/// node with q(u) ≤ 2^32 whose neighbours all declare ≥ 0, since the kept
/// declarations then lie in [0, 2^32).  The scan ORs every declaration
/// into `seen_`, so a negative one shows as the sign bit and the node is
/// redone with WideKeys.
class NarrowKeys {
 public:
  using Key = std::uint64_t;
  static constexpr PacketCount kMaxQueue = PacketCount{1} << 32;

  Key pack(PacketCount declared, std::uint32_t rank) {
    seen_ |= declared;
    return static_cast<std::uint64_t>(declared) << 32 | rank;
  }
  [[nodiscard]] bool fits() const { return seen_ >= 0; }
  static std::uint32_t rank(Key key) { return static_cast<std::uint32_t>(key); }

 private:
  PacketCount seen_ = 0;
};

/// The wide key: the whole declaration (sign bit flipped, so unsigned
/// order is signed order) above the rank.  It holds any declaration a
/// StepView can carry: negative ones, and q(u) > 2^32 with a neighbour far
/// below.
class WideKeys {
 public:
  struct Key {
    std::uint64_t declared;
    std::uint64_t rank;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  Key pack(PacketCount declared, std::uint32_t rank) {
    return {static_cast<std::uint64_t>(declared) ^ (std::uint64_t{1} << 63),
            rank};
  }
  [[nodiscard]] static bool fits() { return true; }
  static std::uint32_t rank(Key key) {
    return static_cast<std::uint32_t>(key.rank);
  }
};

// Sorting networks.  Batcher's odd-even merge sort on N = 2^k inputs
// (1, 5, 19 and 63 comparators for N = 2, 4, 8, 16), pruned to exactly D
// inputs: padding keys D..N−1 with +∞ would make every comparator that
// touches them a no-op, so dropping those comparators sorts D keys
// unpadded (D = 5..8 keep 9, 12, 16, 19; D = 9..16 keep 28 to 63).
struct Comparator {
  std::uint8_t lo;
  std::uint8_t hi;
};

template <std::size_t N, class Emit>
constexpr void batcher_pairs(Emit emit) {
  for (std::size_t p = 1; p < N; p *= 2) {
    for (std::size_t k = p; k > 0; k /= 2) {
      for (std::size_t j = k % p; j + k < N; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < N; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            emit(i + j, i + j + k);
          }
        }
      }
    }
  }
}

template <std::size_t D>
constexpr std::size_t network_size() {
  std::size_t count = 0;
  batcher_pairs<std::bit_ceil(D)>(
      [&](std::size_t, std::size_t hi) { count += hi < D; });
  return count;
}

template <std::size_t D>
constexpr auto make_network() {
  std::array<Comparator, network_size<D>()> net{};
  std::size_t c = 0;
  batcher_pairs<std::bit_ceil(D)>([&](std::size_t lo, std::size_t hi) {
    if (hi < D) {
      net[c++] = {static_cast<std::uint8_t>(lo), static_cast<std::uint8_t>(hi)};
    }
  });
  return net;
}

template <std::size_t D>
inline constexpr auto kNetwork = make_network<D>();

static_assert(kNetwork<4>.size() == 5);
static_assert(kNetwork<8>.size() == 19);
static_assert(kNetwork<16>.size() == 63);

/// Compiles to two conditional moves on integer keys: no branch to
/// mispredict on random keys.  (The std::min/std::max form of this swap
/// was miscompiled by GCC 12.2's SLP vectorizer at -O3 on a 2-key
/// network.)
template <class Key>
inline void compare_swap(Key& a, Key& b) {
  const Key x = a;
  const Key y = b;
  const bool swap = y < x;
  a = swap ? y : x;
  b = swap ? x : y;
}

/// Sorts k[0, D), every comparator unrolled at compile time.
template <std::size_t D, class Key, std::size_t... I>
void run_network([[maybe_unused]] Key* k, std::index_sequence<I...>) {
  (compare_swap(k[kNetwork<D>[I].lo], k[kNetwork<D>[I].hi]), ...);
}

template <std::size_t D, class Key>
void network_sort(Key* k) {
  run_network<D>(k, std::make_index_sequence<kNetwork<D>.size()>{});
}

template <class Key, std::size_t... D>
constexpr auto make_sorters(std::index_sequence<D...>) {
  return std::array<void (*)(Key*), sizeof...(D)>{&network_sort<D, Key>...};
}

/// kSorters<Key>[D] sorts D keys, for D = 0..16.
template <class Key>
inline constexpr auto kSorters =
    make_sorters<Key>(std::make_index_sequence<17>{});

/// Sorts k[0, d): one network per D up to 16, std::sort for hubs.  Wide
/// keys are rare, so they skip the networks, which would only add code.
template <class Key>
void sort_keys(Key* k, std::size_t d) {
  if constexpr (std::is_same_v<Key, std::uint64_t>) {
    if (d < kSorters<Key>.size()) return kSorters<Key>[d](k);
  }
  std::sort(k, k + d);
}

struct Scratch {
  /// Key buffers, one per key width.
  std::tuple<std::vector<NarrowKeys::Key>, std::vector<WideKeys::Key>> keys;
  std::vector<graph::IncidentLink> shuffled;  ///< kRandomShuffle only
  std::vector<NodeId> shuffled_nbrs;          ///< `shuffled`, split
  std::vector<EdgeId> shuffled_edges;
};

/// Shards select concurrently, so each thread owns its scratch.  It stops
/// growing once it has seen the largest degree, which keeps selection
/// allocation-free in steady state.
Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Filter, sort and emit for one node over its list (nbrs[i], edges[i]):
/// keep the active downhill links as keys, sort the D keys and serve the
/// lowest min(q(u), D).  Returns false, having emitted nothing, when a kept
/// declaration does not fit the key.
template <class Keys>
bool serve_downhill(const StepView& view, NodeId u, PacketCount qu,
                    std::span<const NodeId> nbrs, std::span<const EdgeId> edges,
                    const graph::EdgeMask* mask, Scratch& scratch,
                    std::vector<Transmission>& out) {
  auto& buf = std::get<std::vector<typename Keys::Key>>(scratch.keys);
  if (buf.size() < nbrs.size()) buf.resize(nbrs.size());
  typename Keys::Key* const k = buf.data();
  Keys keys;
  // Each slot is written unconditionally and kept by advancing `d`, so the
  // scan carries no data-dependent branch.
  std::size_t d = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const PacketCount q = view.declared[static_cast<std::size_t>(nbrs[i])];
    k[d] = keys.pack(q, static_cast<std::uint32_t>(i));
    d += static_cast<std::size_t>(q < qu) &
         static_cast<std::size_t>(mask == nullptr || mask->active(edges[i]));
  }
  if (!keys.fits()) return false;

  sort_keys(k, d);
  const std::size_t sent =
      std::min(d, static_cast<std::size_t>(static_cast<std::uint64_t>(qu)));
  for (std::size_t j = 0; j < sent; ++j) {
    const std::size_t r = Keys::rank(k[j]);
    out.push_back(Transmission{edges[r], u, nbrs[r]});
  }
  return true;
}

/// One node's selection into `out`.  Returns 1 when the node was active
/// (held packets), 0 otherwise.
std::uint64_t select_node(TieBreak tie_break, const StepView& view, NodeId u,
                          Scratch& scratch, std::vector<Transmission>& out) {
  // u compares its own true queue against the neighbours' declarations.
  const PacketCount qu = view.queue[static_cast<std::size_t>(u)];
  if (qu <= 0) return 0;
  const graph::EdgeMask* mask = view.active;
  std::span<const NodeId> nbrs = view.incidence->ordered_neighbors(u);
  std::span<const EdgeId> edges = view.incidence->ordered_edges(u);
  if (tie_break == TieBreak::kRandomShuffle) {
    // The list is a shuffle of every active link in insertion order.  It
    // draws from u's addressed stream, never a shared one, so the
    // tie-break is identical whether u is visited serially or from a shard.
    scratch.shuffled.clear();
    for (const graph::IncidentLink& link : view.incidence->incident(u)) {
      if (mask == nullptr || mask->active(link.edge)) {
        scratch.shuffled.push_back(link);
      }
    }
    Rng rng = draw_rng(view.draw_seed, static_cast<std::uint64_t>(view.t),
                       static_cast<std::uint64_t>(StepPhase::kSelection),
                       static_cast<std::uint64_t>(u));
    std::shuffle(scratch.shuffled.begin(), scratch.shuffled.end(),
                 rng.engine());
    scratch.shuffled_nbrs.clear();
    scratch.shuffled_edges.clear();
    for (const graph::IncidentLink& link : scratch.shuffled) {
      scratch.shuffled_nbrs.push_back(link.neighbor);
      scratch.shuffled_edges.push_back(link.edge);
    }
    nbrs = scratch.shuffled_nbrs;
    edges = scratch.shuffled_edges;
    mask = nullptr;  // the shuffled list holds active links only
  }
  // Otherwise the list is the neighbour-ordered CSR arrays, whose rank
  // order is (neighbour id, edge id).
  if (qu > NarrowKeys::kMaxQueue ||
      !serve_downhill<NarrowKeys>(view, u, qu, nbrs, edges, mask, scratch,
                                  out)) {
    serve_downhill<WideKeys>(view, u, qu, nbrs, edges, mask, scratch, out);
  }
  return 1;
}

}  // namespace

void LggProtocol::select_transmissions(const StepView& view, Rng&,
                                       std::vector<Transmission>& out) {
  const NodeId n = view.net->node_count();
  Scratch& scratch = thread_scratch();
  std::uint64_t active = 0;
  for (NodeId u = 0; u < n; ++u) {
    active += select_node(tie_break_, view, u, scratch, out);
  }
  if (active_nodes_ != nullptr) active_nodes_->add(active);
}

std::uint64_t LggProtocol::select_for_nodes(const StepView& view,
                                            std::span<const NodeId> nodes,
                                            std::vector<Transmission>& out) {
  Scratch& scratch = thread_scratch();
  std::uint64_t active = 0;
  for (const NodeId u : nodes) {
    active += select_node(tie_break_, view, u, scratch, out);
  }
  return active;
}

void LggProtocol::note_selection_work(std::uint64_t active) {
  if (active_nodes_ != nullptr) active_nodes_->add(active);
}

void LggProtocol::register_metrics(obs::MetricRegistry& registry) {
  active_nodes_ = &registry.counter("protocol.active_nodes");
}

}  // namespace lgg::core
