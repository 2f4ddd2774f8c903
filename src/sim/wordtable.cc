#include "sim/wordtable.hh"

#include <algorithm>
#include <new>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

namespace ilp {

namespace {

/** Bytes of the reservation behind every table. */
constexpr std::size_t kReservedBytes =
    WordTable::kMaxWords * sizeof(std::uint64_t);

/** `words` rounded up to a whole number of pages, in bytes. */
std::size_t
pageBytes(std::size_t words)
{
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t bytes = words * sizeof(std::uint64_t);
    return (bytes + page - 1) / page * page;
}

} // namespace

WordTable::WordTable(std::size_t words)
{
    if (words > 0)
        growTo(words - 1);
}

WordTable::~WordTable()
{
    if (words_ != nullptr)
        ::munmap(words_, kReservedBytes);
}

WordTable::WordTable(WordTable &&other) noexcept
    : words_(std::exchange(other.words_, nullptr)),
      size_(std::exchange(other.size_, 0))
{
}

WordTable &
WordTable::operator=(WordTable &&other) noexcept
{
    if (this != &other) {
        WordTable gone(std::move(*this));
        words_ = std::exchange(other.words_, nullptr);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

void
WordTable::growTo(std::size_t word)
{
    if (word < size_)
        return;
    if (word >= kMaxWords)
        throw std::bad_alloc();
    if (words_ == nullptr) {
        // Address space only: an inaccessible range takes no memory
        // and, with MAP_NORESERVE, no commit charge.
        void *table =
            ::mmap(nullptr, kReservedBytes, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (table == MAP_FAILED)
            throw std::bad_alloc();
        // Small pages only: a huge page would make one written word
        // cost 2 MB resident.
        ::madvise(table, kReservedBytes, MADV_NOHUGEPAGE);
        words_ = static_cast<std::uint64_t *>(table);
    }
    // Open the next stretch of the reservation where it lies.  Only
    // the accessible part is ever charged against a strict overcommit
    // limit, as a vector of size() words would be.
    const std::size_t old = size_ * sizeof(std::uint64_t);
    const std::size_t bytes =
        std::min(pageBytes(std::max(word + 1, 2 * size_)), kReservedBytes);
    if (::mprotect(reinterpret_cast<char *>(words_) + old, bytes - old,
                   PROT_READ | PROT_WRITE) != 0)
        throw std::bad_alloc();
    size_ = bytes / sizeof(std::uint64_t);
}

} // namespace ilp
