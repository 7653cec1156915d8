#include "slp/conflict.hpp"

#include <algorithm>
#include <bit>

#include "support/diagnostics.hpp"

namespace slpwlo {

ConflictSet::ConflictSet(size_t candidate_count)
    : size_(candidate_count),
      words_((candidate_count + 63) / 64),
      bits_(candidate_count * words_, 0) {}

void ConflictSet::add(size_t i, size_t j) {
    SLPWLO_ASSERT(i < size_ && j < size_, "conflict index out of range");
    if (i == j || conflict(i, j)) return;
    bits_[i * words_ + j / 64] |= uint64_t{1} << (j % 64);
    bits_[j * words_ + i / 64] |= uint64_t{1} << (i % 64);
    pairs_++;
}

namespace {

/// A row-major matrix of bits, `words()` 64-bit words per row.
class BitRows {
public:
    BitRows(size_t rows, size_t columns)
        : words_((columns + 63) / 64), bits_(rows * words_, 0) {}

    uint64_t* row(size_t r) { return bits_.data() + r * words_; }
    const uint64_t* row(size_t r) const { return bits_.data() + r * words_; }
    size_t words() const { return words_; }

    static void set(uint64_t* row, size_t column) {
        row[column / 64] |= uint64_t{1} << (column % 64);
    }
    static bool test(const uint64_t* row, size_t column) {
        return (row[column / 64] >> (column % 64)) & 1u;
    }
    /// to |= from, over `words` words.
    static void merge(uint64_t* to, const uint64_t* from, size_t words) {
        for (size_t w = 0; w < words; ++w) to[w] |= from[w];
    }

private:
    size_t words_;
    std::vector<uint64_t> bits_;
};

}  // namespace

ConflictSet detect_structural_conflicts(
    const PackedView& view, const std::vector<Candidate>& candidates) {
    const size_t n = static_cast<size_t>(view.size());
    const size_t count = candidates.size();
    // Per view node, two rows over the candidates: those with the node
    // as a member, and those with it among their ancestors. A
    // candidate's ancestors, the OR of its members' rows of the view's
    // dependence matrix, are scattered into the second.
    BitRows member_of(n, count);
    BitRows ancestor_of(n, count);
    std::vector<uint64_t> ancestors(view.dep_words());
    SLPWLO_ASSERT(ancestors.size() == (n + 63) / 64,
                  "dependence rows do not cover the view's nodes");
    for (size_t c = 0; c < count; ++c) {
        std::fill(ancestors.begin(), ancestors.end(), 0);
        for (const int node : candidates[c].nodes) {
            BitRows::set(member_of.row(static_cast<size_t>(node)), c);
            BitRows::merge(ancestors.data(), view.dep_row(node),
                           ancestors.size());
        }
        for (size_t w = 0; w < ancestors.size(); ++w) {
            for (uint64_t bits = ancestors[w]; bits != 0; bits &= bits - 1) {
                const size_t node =
                    w * 64 + static_cast<size_t>(std::countr_zero(bits));
                BitRows::set(ancestor_of.row(node), c);
            }
        }
    }

    // Per candidate i: S_i, the candidates sharing one of its members,
    // and D_i, the candidates depending on one of them.
    const size_t words = member_of.words();
    BitRows dependents(count, count);
    std::vector<uint64_t> shares(words);
    ConflictSet conflicts(count);
    for (size_t i = 0; i < count; ++i) {
        for (const int node : candidates[i].nodes) {
            BitRows::merge(dependents.row(i),
                           ancestor_of.row(static_cast<size_t>(node)), words);
        }
    }
    for (size_t i = 0; i < count; ++i) {
        std::fill(shares.begin(), shares.end(), 0);
        for (const int node : candidates[i].nodes) {
            BitRows::merge(shares.data(),
                           member_of.row(static_cast<size_t>(node)), words);
        }
        // i and j > i conflict when j is in S_i, or when each depends on
        // the other: j in D_i and i in D_j.
        const uint64_t* depend_i = dependents.row(i);
        for (size_t w = i / 64; w < words; ++w) {
            // Bits of candidates j > i only.
            const uint64_t later =
                w == i / 64 ? ~uint64_t{0} << (i % 64) << 1 : ~uint64_t{0};
            const uint64_t shared = shares[w] & later;
            for (uint64_t bits = shared; bits != 0; bits &= bits - 1) {
                conflicts.add(i, w * 64 + static_cast<size_t>(
                                              std::countr_zero(bits)));
            }
            for (uint64_t bits = depend_i[w] & later & ~shared; bits != 0;
                 bits &= bits - 1) {
                const size_t j =
                    w * 64 + static_cast<size_t>(std::countr_zero(bits));
                if (BitRows::test(dependents.row(j), i)) conflicts.add(i, j);
            }
        }
    }
    return conflicts;
}

}  // namespace slpwlo
