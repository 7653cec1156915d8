#include "slp/packing_cost.hpp"

#include <algorithm>
#include <unordered_map>

namespace slpwlo {

std::vector<OpId> fused_lanes(const PackedView& view, const Candidate& c) {
    std::vector<OpId> lanes;
    for (const int n : c.nodes) {
        const auto& more = view.node(n).lanes;
        lanes.insert(lanes.end(), more.begin(), more.end());
    }
    return lanes;
}

bool lanes_memory_adjacent(const PackedView& view,
                           const std::vector<OpId>& lanes) {
    const Kernel& kernel = view.kernel();
    const Op& first = kernel.op(lanes.front());
    if (!first.is_memory()) return false;
    for (size_t i = 1; i < lanes.size(); ++i) {
        const Op& op = kernel.op(lanes[i]);
        if (op.array != first.array) return false;
        const auto diff =
            op.index.constant_difference(kernel.op(lanes[i - 1]).index);
        if (!diff.has_value() || *diff != 1) return false;
    }
    return true;
}

std::vector<OpId> operand_defs(const PackedView& view,
                               const std::vector<OpId>& lanes, int slot) {
    std::vector<OpId> defs;
    defs.reserve(lanes.size());
    for (const OpId lane : lanes) {
        const OpId def = view.def_of_arg(lane, slot);
        if (!def.valid()) return {};
        defs.push_back(def);
    }
    return defs;
}

namespace {

/// True if every lane reads the same live-in variable (splat).
bool is_splat(const PackedView& view, const std::vector<OpId>& lanes,
              int slot) {
    const Kernel& kernel = view.kernel();
    const VarId first = kernel.op(lanes.front()).args[slot];
    for (const OpId lane : lanes) {
        if (view.def_of_arg(lane, slot).valid()) return false;
        if (kernel.op(lane).args[slot] != first) return false;
    }
    return true;
}

/// A producer only counts when its lanes are memory-adjacent loads or not
/// loads at all: a gathered (non-contiguous) load group merely relocates
/// the packing cost, it does not produce a free superword.
bool usable_producer(const PackedView& view, const std::vector<OpId>& lanes) {
    if (view.kernel().op(lanes.front()).kind != OpKind::Load) return true;
    return lanes_memory_adjacent(view, lanes);
}

struct LanesHash {
    size_t operator()(const std::vector<OpId>& lanes) const {
        uint64_t h = 1469598103934665603ull;
        for (const OpId lane : lanes) {
            h = (h ^ static_cast<uint32_t>(lane.value)) * 1099511628211ull;
        }
        return static_cast<size_t>(h);
    }
};

/// Lane list -> the indices (ascending) of the nodes that have it.
using LanesMap =
    std::unordered_map<std::vector<OpId>, std::vector<uint32_t>, LanesHash>;

const std::vector<uint32_t>& lookup(const LanesMap& map,
                                    const std::vector<OpId>& lanes) {
    static const std::vector<uint32_t> none;
    const auto it = map.find(lanes);
    return it == map.end() ? none : it->second;
}

}  // namespace

CandidateIndex::CandidateIndex(const PackedView& view,
                               const std::vector<Candidate>& candidates,
                               const TargetModel& target) {
    const Kernel& kernel = view.kernel();
    const size_t n = candidates.size();
    entries_.resize(n);
    std::vector<std::vector<OpId>> fused(n);
    LanesMap by_lanes;
    std::vector<char> usable(n);
    for (size_t i = 0; i < n; ++i) {
        fused[i] = fused_lanes(view, candidates[i]);
        by_lanes[fused[i]].push_back(static_cast<uint32_t>(i));
        usable[i] = usable_producer(view, fused[i]);
    }
    // Existing groups (width >= 2 view nodes) that can produce a superword.
    LanesMap groups;
    for (int g = 0; g < view.size(); ++g) {
        if (view.width(g) < 2) continue;
        const std::vector<OpId>& lanes = view.node(g).lanes;
        if (usable_producer(view, lanes)) {
            groups[lanes].push_back(static_cast<uint32_t>(g));
        }
    }

    for (size_t i = 0; i < n; ++i) {
        Entry& e = entries_[i];
        const Candidate& c = candidates[i];
        const std::vector<OpId>& lanes = fused[i];
        const int w = static_cast<int>(lanes.size());
        const OpKind kind = view.kind(c.nodes.front());
        // n node issues become one (1.0 for a pair; a k-lane run seed
        // saves k - 1 issues in one step).
        e.saved_ops = static_cast<double>(c.node_count() - 1);
        if ((kind == OpKind::Load || kind == OpKind::Store) &&
            !lanes_memory_adjacent(view, lanes)) {
            // Gather/scatter: synthesize the vector (or tear it apart)
            // lane by lane.
            e.gather_pack = (w - 1) * target.pack2_ops;
        }

        // Operand superwords of arithmetic ops and the stored value of
        // stores.
        const int slots = kernel.op(lanes.front()).num_args();
        e.slots.resize(static_cast<size_t>(slots));
        for (int s = 0; s < slots; ++s) {
            Slot& slot = e.slots[static_cast<size_t>(s)];
            // acc = acc + p: the operand is the group's own
            // previous-iteration result, held in a vector register — a
            // reuse, not a pack.
            slot.self_accumulation = std::all_of(
                lanes.begin(), lanes.end(), [&](OpId lane) {
                    const Op& op = kernel.op(lane);
                    return op.dest.valid() && op.args[s] == op.dest &&
                           !view.def_of_arg(lane, s).valid();
                });
            if (slot.self_accumulation) continue;
            const std::vector<OpId> defs = operand_defs(view, lanes, s);
            if (!defs.empty()) {
                // Producers: lanes in order (Direct) or in reverse
                // (Reversed, realizable with one vector permute; the FIR
                // convolution's x-descending / c-ascending pattern). No
                // lane list equals both unless defs is a palindrome, so
                // the two lists are disjoint; sorting restores index
                // order.
                const std::vector<OpId> reversed(defs.rbegin(), defs.rend());
                std::vector<Producer>& producers = slot.producers;
                for (const uint32_t j : lookup(by_lanes, defs)) {
                    producers.push_back({j, Match::Direct});
                }
                if (reversed != defs) {
                    for (const uint32_t j : lookup(by_lanes, reversed)) {
                        producers.push_back({j, Match::Reversed});
                    }
                }
                std::erase_if(producers, [&](const Producer& p) {
                    return p.candidate == i || !usable[p.candidate];
                });
                std::sort(producers.begin(), producers.end(),
                          [](const Producer& x, const Producer& y) {
                              return x.candidate < y.candidate;
                          });
                const std::vector<uint32_t>& gd = lookup(groups, defs);
                const std::vector<uint32_t>& gr = lookup(groups, reversed);
                if (!gd.empty() && (gr.empty() || gd.front() <= gr.front())) {
                    slot.group = Match::Direct;
                } else if (!gr.empty()) {
                    slot.group = Match::Reversed;
                }
            }
            if (!defs.empty() && lanes_memory_adjacent(view, defs)) {
                // Loads that could be vectorized even w/o a candidate.
                slot.fallback_reuse = 0.5;
            } else if (is_splat(view, lanes, s)) {
                slot.fallback_pack = 1.0;
            } else {
                slot.fallback_pack = (w - 1) * target.pack2_ops;
            }
        }

        // Result side (stores produce no value).
        e.produces_value = kind != OpKind::Store;
        if (!e.produces_value) continue;
        // A self-accumulating group consumes its own result in the next
        // iteration.
        for (int s = 0; s < slots && !e.self_consumed; ++s) {
            e.self_consumed = std::all_of(
                lanes.begin(), lanes.end(), [&](OpId lane) {
                    const Op& op = kernel.op(lane);
                    return op.dest.valid() && op.args[s] == op.dest;
                });
        }
        int extracted = 0;
        for (const OpId lane : lanes) {
            if (!view.consumers_of(lane).empty() ||
                view.has_external_uses(lane)) {
                extracted++;
            }
        }
        e.unpack_if_unconsumed = extracted * target.extract_ops;
    }

    // Consumers: a candidate whose operand lanes match i's lanes (either
    // order) turns i's result into a reused superword, once per slot.
    for (size_t j = 0; j < n; ++j) {
        const std::vector<OpId>& lanes = fused[j];
        const int slots = kernel.op(lanes.front()).num_args();
        for (int s = 0; s < slots; ++s) {
            const std::vector<OpId> defs = operand_defs(view, lanes, s);
            if (defs.empty()) continue;
            const std::vector<OpId> reversed(defs.rbegin(), defs.rend());
            auto add = [&](uint32_t i) {
                if (i == j || candidates[i] == candidates[j]) return;
                std::vector<Consumer>& list = entries_[i].consumers;
                if (!list.empty() && list.back().candidate == j) {
                    list.back().slots++;
                } else {
                    list.push_back({static_cast<uint32_t>(j), 1});
                }
            };
            for (const uint32_t i : lookup(by_lanes, defs)) add(i);
            if (reversed != defs) {
                for (const uint32_t i : lookup(by_lanes, reversed)) add(i);
            }
        }
    }
}

Economics CandidateIndex::evaluate(size_t i, const Pool& pool) const {
    const Entry& e = entries_[i];
    auto in_alive_part = [&](uint32_t j) {
        return pool.alive[j] &&
               (pool.conflicts == nullptr || !pool.conflicts->conflict(i, j));
    };

    Economics econ;
    econ.saved_ops = e.saved_ops;
    econ.pack_cost = e.gather_pack;
    for (const Slot& slot : e.slots) {
        if (slot.self_accumulation) {
            econ.reuse += 1.0;
            continue;
        }
        Match match = Match::No;
        for (const Producer& p : slot.producers) {
            if (in_alive_part(p.candidate)) {
                match = p.match;
                break;
            }
        }
        if (match == Match::No) {
            int first = -1;
            for (const Producer& p : slot.producers) {
                const int rank = pool.commit_rank[p.candidate];
                if (rank >= 0 && (first < 0 || rank < first)) {
                    first = rank;
                    match = p.match;
                }
            }
        }
        if (match == Match::No) match = slot.group;
        switch (match) {
            case Match::Direct:
                econ.reuse += 1.0;
                break;
            case Match::Reversed:
                econ.reuse += 1.0;
                econ.pack_cost += 1.0;  // one vector permute
                break;
            case Match::No:
                econ.reuse += slot.fallback_reuse;
                econ.pack_cost += slot.fallback_pack;
                break;
        }
    }

    if (e.produces_value) {
        bool consumed_as_superword = e.self_consumed;
        for (const Consumer& c : e.consumers) {
            if (in_alive_part(c.candidate) ||
                pool.commit_rank[c.candidate] >= 0) {
                econ.reuse += c.slots;
                consumed_as_superword = true;
            }
        }
        if (!consumed_as_superword) econ.unpack_cost = e.unpack_if_unconsumed;
    }
    return econ;
}

Economics evaluate_candidate(const PackedView& view,
                             const std::vector<Candidate>& available,
                             const Candidate& c, const TargetModel& target) {
    std::vector<Candidate> candidates = available;
    candidates.push_back(c);
    const CandidateIndex index(view, candidates, target);
    return index.evaluate(candidates.size() - 1,
                          CandidateIndex::Pool(candidates.size(), nullptr));
}

}  // namespace slpwlo
