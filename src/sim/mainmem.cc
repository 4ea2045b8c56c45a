#include "sim/mainmem.hh"

#include <cstring>

#include "casm/program.hh"
#include "common/log.hh"

namespace dmt
{

MainMemory::MainMemory(const MainMemory &other)
{
    *this = other;
}

MainMemory &
MainMemory::operator=(const MainMemory &other)
{
    if (this == &other)
        return *this;
    pages.clear();
    for (const auto &[idx, page] : other.pages)
        pages.emplace(idx, std::make_unique<Page>(*page));
    return *this;
}

void
MainMemory::clear()
{
    pages.clear();
}

void
MainMemory::loadProgram(const Program &prog)
{
    for (size_t i = 0; i < prog.data.size(); ++i)
        write8(Program::kDataBase + static_cast<Addr>(i), prog.data[i]);
}

bool
MainMemory::operator==(const MainMemory &other) const
{
    if (pages.size() != other.pages.size())
        return false;
    for (const auto &[idx, page] : pages) {
        const auto it = other.pages.find(idx);
        if (it == other.pages.end())
            return false;
        if (std::memcmp(page->data(), it->second->data(), kPageSize)
            != 0) {
            return false;
        }
    }
    return true;
}

const u8 *
MainMemory::pageData(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? page->data() : nullptr;
}

u8 *
MainMemory::pageDataWritable(Addr addr)
{
    return touchPage(addr).data();
}

const MainMemory::Page *
MainMemory::findPage(Addr addr) const
{
    auto it = pages.find(addr >> kPageBits);
    return it == pages.end() ? nullptr : it->second.get();
}

MainMemory::Page &
MainMemory::touchPage(Addr addr)
{
    auto &slot = pages[addr >> kPageBits];
    if (!slot)
        slot = std::make_unique<Page>(kPageSize, 0);
    return *slot;
}

u8
MainMemory::read8(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

u16
MainMemory::read16(Addr addr) const
{
    addr &= ~1u;
    return static_cast<u16>(read8(addr) | (read8(addr + 1) << 8));
}

u32
MainMemory::read32(Addr addr) const
{
    addr &= ~3u;
    return read8(addr) | (read8(addr + 1) << 8) | (read8(addr + 2) << 16)
        | (static_cast<u32>(read8(addr + 3)) << 24);
}

void
MainMemory::write8(Addr addr, u8 value)
{
    touchPage(addr)[addr & (kPageSize - 1)] = value;
}

void
MainMemory::write16(Addr addr, u16 value)
{
    addr &= ~1u;
    write8(addr, static_cast<u8>(value));
    write8(addr + 1, static_cast<u8>(value >> 8));
}

void
MainMemory::write32(Addr addr, u32 value)
{
    addr &= ~3u;
    write8(addr, static_cast<u8>(value));
    write8(addr + 1, static_cast<u8>(value >> 8));
    write8(addr + 2, static_cast<u8>(value >> 16));
    write8(addr + 3, static_cast<u8>(value >> 24));
}

u32
MainMemory::read(Addr addr, int bytes, bool sign_extend) const
{
    switch (bytes) {
      case 1: {
          const u8 v = read8(addr);
          return sign_extend ? static_cast<u32>(static_cast<i32>(
                     static_cast<i8>(v)))
                             : v;
      }
      case 2: {
          const u16 v = read16(addr);
          return sign_extend ? static_cast<u32>(static_cast<i32>(
                     static_cast<i16>(v)))
                             : v;
      }
      case 4:
        return read32(addr);
      default:
        panic("bad access size %d", bytes);
    }
}

void
MainMemory::write(Addr addr, int bytes, u32 value)
{
    switch (bytes) {
      case 1:
        write8(addr, static_cast<u8>(value));
        break;
      case 2:
        write16(addr, static_cast<u16>(value));
        break;
      case 4:
        write32(addr, value);
        break;
      default:
        panic("bad access size %d", bytes);
    }
}

} // namespace dmt
