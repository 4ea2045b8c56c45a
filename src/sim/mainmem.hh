/**
 * @file
 * Flat byte-addressable main memory with sparse page allocation.
 * Little-endian, 32-bit address space.  Accesses are size-aligned by
 * masking low address bits (the ISA has no unaligned accesses; masking
 * keeps speculative wild addresses deterministic and harmless).
 */

#ifndef DMT_SIM_MAINMEM_HH
#define DMT_SIM_MAINMEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace dmt
{

class Program;

/** Sparse simulated memory. */
class MainMemory
{
  public:
    static constexpr u32 kPageBits = 16;
    static constexpr u32 kPageSize = 1u << kPageBits;

    MainMemory() = default;

    /** Copyable so the golden checker can fork state. */
    MainMemory(const MainMemory &other);
    MainMemory &operator=(const MainMemory &other);
    MainMemory(MainMemory &&) = default;
    MainMemory &operator=(MainMemory &&) = default;

    /** Zero everything. */
    void clear();

    /** Initialize the data segment from @p prog. */
    void loadProgram(const Program &prog);

    u8 read8(Addr addr) const;
    u16 read16(Addr addr) const;
    u32 read32(Addr addr) const;

    void write8(Addr addr, u8 value);
    void write16(Addr addr, u16 value);
    void write32(Addr addr, u32 value);

    /** Generic read of 1/2/4 bytes with optional sign extension. */
    u32 read(Addr addr, int bytes, bool sign_extend) const;

    /** Generic write of 1/2/4 bytes. */
    void write(Addr addr, int bytes, u32 value);

    /** Number of pages currently allocated (for tests). */
    size_t numPages() const { return pages.size(); }

    /**
     * Raw bytes of the page containing @p addr, or nullptr when the
     * page is absent (absent pages read as zero and must stay
     * unallocated).  The pointer stays valid until the page is freed:
     * pages are heap blocks owned through unique_ptr, so map rehashes
     * don't move them.  Fast-path hook for TranslatedCore's page TLBs.
     */
    const u8 *pageData(Addr addr) const;

    /** Like pageData() but allocating: never nullptr. */
    u8 *pageDataWritable(Addr addr);

    /**
     * Sparse-page-exact equality: same allocated page set with
     * byte-identical contents.  An allocated all-zero page and an
     * absent page compare *unequal* — checkpoints must round-trip the
     * sparse structure itself, not just the values it implies.
     */
    bool operator==(const MainMemory &other) const;

  private:
    using Page = std::vector<u8>;

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<u32, std::unique_ptr<Page>> pages;
};

} // namespace dmt

#endif // DMT_SIM_MAINMEM_HH
