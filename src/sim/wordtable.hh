/**
 * @file
 * A zero-initialized table of 64-bit words that holds memory only
 * where it has been written.
 *
 * The table is one private anonymous mapping of kMaxWords words,
 * reserved once, on the first growTo(), and inaccessible past size().
 * The kernel backs a page of it only when the page is first written
 * (reading an untouched page costs nothing), so a table indexed by
 * word address holds only the pages a run writes, however far apart
 * they lie.  growTo() makes more of the reservation accessible in
 * place: no word is zero-filled, copied or moved, and a pointer into
 * the table stays valid.
 *
 * Three tables of this kind are indexed by simulated word address:
 * the data memory's image (sim/memory.hh), the issue engine's ready
 * time per stored word (sim/issue.hh) and the dependence graph
 * builder's last store per word (sim/depgraph.hh).
 */

#ifndef SUPERSYM_SIM_WORDTABLE_HH
#define SUPERSYM_SIM_WORDTABLE_HH

#include <cstddef>
#include <cstdint>

namespace ilp {

class WordTable
{
  public:
    /** Words a table can grow to: one per word of a 4 GiB (32-bit)
     *  simulated address space.  The reservation costs address space
     *  only. */
    static constexpr std::size_t kMaxWords = std::size_t{1} << 29;

    /** An empty table: size() is 0 until the first growTo(). */
    WordTable() = default;
    /** A table of at least `words` zero words. */
    explicit WordTable(std::size_t words);
    ~WordTable();

    WordTable(WordTable &&other) noexcept;
    WordTable &operator=(WordTable &&other) noexcept;
    WordTable(const WordTable &) = delete;
    WordTable &operator=(const WordTable &) = delete;

    /** Words in the table, a whole number of pages: every index
     *  below it is valid, and reads 0 until written. */
    std::size_t size() const { return size_; }

    std::uint64_t operator[](std::size_t i) const { return words_[i]; }
    std::uint64_t &operator[](std::size_t i) { return words_[i]; }

    /** Make index `word` valid.  The table at least doubles, so a
     *  run of growing indices costs a logarithmic number of calls;
     *  the new words read 0.  Throws std::bad_alloc when `word` is
     *  not below kMaxWords or the kernel refuses the mapping. */
    void growTo(std::size_t word);

  private:
    std::uint64_t *words_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace ilp

#endif // SUPERSYM_SIM_WORDTABLE_HH
