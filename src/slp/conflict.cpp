#include "slp/conflict.hpp"

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

/// Rows of bits over the view's nodes, one per candidate.
class NodeRows {
public:
    NodeRows(size_t rows, size_t nodes)
        : words_((nodes + 63) / 64), bits_(rows * words_, 0) {}

    uint64_t* row(size_t r) { return bits_.data() + r * words_; }
    const uint64_t* row(size_t r) const { return bits_.data() + r * words_; }
    size_t words() const { return words_; }

    static void set(uint64_t* row, int node) {
        row[node / 64] |= uint64_t{1} << (node % 64);
    }
    static bool test(const uint64_t* row, int node) {
        return (row[node / 64] >> (node % 64)) & 1u;
    }

private:
    size_t words_;
    std::vector<uint64_t> bits_;
};

}  // namespace

ConflictSet detect_structural_conflicts(
    const PackedView& view, const std::vector<Candidate>& candidates) {
    const size_t n = static_cast<size_t>(view.size());
    // A candidate's ancestors: the OR of its members' rows of the view's
    // dependence matrix.
    NodeRows members(candidates.size(), n);
    NodeRows ancestors(candidates.size(), n);
    SLPWLO_ASSERT(ancestors.words() == view.dep_words(),
                  "dependence rows and candidate rows differ in width");
    for (size_t c = 0; c < candidates.size(); ++c) {
        uint64_t* mem = members.row(c);
        uint64_t* anc = ancestors.row(c);
        for (const int node : candidates[c].nodes) {
            NodeRows::set(mem, node);
            const uint64_t* row = view.dep_row(node);
            for (size_t w = 0; w < ancestors.words(); ++w) anc[w] |= row[w];
        }
    }

    ConflictSet conflicts(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        const std::vector<int>& xi = candidates[i].nodes;
        const uint64_t* anc_i = ancestors.row(i);
        for (size_t j = i + 1; j < candidates.size(); ++j) {
            const uint64_t* mem_j = members.row(j);
            const uint64_t* anc_j = ancestors.row(j);
            // Shared node: a member of i is a member of j. Half a cycle:
            // a member of j depends on a member of i.
            bool shared = false;
            bool j_on_i = false;
            for (const int node : xi) {
                shared |= NodeRows::test(mem_j, node);
                j_on_i |= NodeRows::test(anc_j, node);
            }
            bool cyclic = false;
            if (!shared && j_on_i) {
                for (const int node : candidates[j].nodes) {
                    if (NodeRows::test(anc_i, node)) {
                        cyclic = true;
                        break;
                    }
                }
            }
            if (shared || cyclic) conflicts.add(i, j);
        }
    }
    return conflicts;
}

}  // namespace slpwlo
