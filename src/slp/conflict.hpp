// Structural conflict detection between SIMD group candidates
// (Fig. 1c "Conflicts Detection", the Liu et al. part).
//
// Two candidates conflict when they share a view node (an operation can be
// in only one group) or when selecting both would create a cyclic
// dependency between the two groups (each group depends on a member of the
// other). Accuracy conflicts — the paper's extension — are added on top by
// the accuracy-aware extractor in src/core.
//
// Detection never visits a pair. Per view node it builds two bitsets
// over the candidates: those with the node as a member, and those with
// the node among their ancestors (every node some member depends on).
// OR-ing its members' bitsets gives each candidate the candidates sharing
// one of its nodes and the candidates depending on it; two candidates
// are cyclic when each depends on the other.
#pragma once

#include <cstdint>
#include <vector>

#include "slp/candidate.hpp"

namespace slpwlo {

class ConflictSet {
public:
    explicit ConflictSet(size_t candidate_count);

    void add(size_t i, size_t j);
    bool conflict(size_t i, size_t j) const {
        return (bits_[i * words_ + j / 64] >> (j % 64)) & 1u;
    }

    /// Row i as words(): bit j % 64 of word j / 64 is conflict(i, j).
    const uint64_t* row(size_t i) const { return bits_.data() + i * words_; }
    size_t words() const { return words_; }

    /// Number of conflicting pairs recorded.
    size_t pair_count() const { return pairs_; }

    bool any() const { return pairs_ > 0; }

    friend bool operator==(const ConflictSet&, const ConflictSet&) = default;

private:
    size_t size_;
    size_t words_;                ///< 64-bit words per row
    std::vector<uint64_t> bits_;  ///< row-major symmetric bit matrix
    size_t pairs_ = 0;
};

/// All structural conflicts among `candidates`.
ConflictSet detect_structural_conflicts(const PackedView& view,
                                        const std::vector<Candidate>& candidates);

}  // namespace slpwlo
